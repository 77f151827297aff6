#include "util/logging.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>

namespace bento {

namespace {

/// BENTO_LOG accepts level names (debug, info, warning, error, fatal; any
/// case, "warn" works) or the numeric enum value. Unset or unrecognized
/// values keep the kWarning default.
int LevelFromEnv() {
  const char* env = std::getenv("BENTO_LOG");
  if (env == nullptr || *env == '\0') {
    return static_cast<int>(LogLevel::kWarning);
  }
  std::string v;
  for (const char* p = env; *p; ++p) {
    v.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  if (v == "debug" || v == "0") return static_cast<int>(LogLevel::kDebug);
  if (v == "info" || v == "1") return static_cast<int>(LogLevel::kInfo);
  if (v == "warning" || v == "warn" || v == "2") {
    return static_cast<int>(LogLevel::kWarning);
  }
  if (v == "error" || v == "3") return static_cast<int>(LogLevel::kError);
  if (v == "fatal" || v == "4") return static_cast<int>(LogLevel::kFatal);
  return static_cast<int>(LogLevel::kWarning);
}

// -1 = not yet initialized from the environment; resolved lazily so the
// first log site works regardless of static-init order.
std::atomic<int> g_min_level{-1};

int MinLevel() {
  int v = g_min_level.load(std::memory_order_relaxed);
  if (v < 0) {
    v = LevelFromEnv();
    g_min_level.store(v, std::memory_order_relaxed);
  }
  return v;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}
}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level),
      enabled_(static_cast<int>(level) >= MinLevel() ||
               level == LogLevel::kFatal) {
  if (enabled_) {
    const char* base = file;
    for (const char* p = file; *p; ++p) {
      if (*p == '/') base = p + 1;
    }
    stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    stream_ << "\n";
    std::fputs(stream_.str().c_str(), stderr);
    std::fflush(stderr);
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal
}  // namespace bento
