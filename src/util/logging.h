#ifndef BENTO_UTIL_LOGGING_H_
#define BENTO_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "util/status.h"

namespace bento {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

namespace internal {

/// Accumulates one log line and flushes it (to stderr) on destruction.
/// Fatal severity aborts the process after flushing.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  bool enabled_;
  std::ostringstream stream_;
};

struct LogMessageVoidify {
  // Lowest-precedence operator so the macro's ternary can discard the stream.
  void operator&(LogMessage&) {}
};

}  // namespace internal

#define BENTO_LOG_INTERNAL(level) \
  ::bento::internal::LogMessage(::bento::LogLevel::level, __FILE__, __LINE__)

#define BENTO_LOG(severity) BENTO_LOG_INTERNAL(k##severity)

/// Invariant check, active in all build types; aborts with a message.
#define BENTO_CHECK(cond)                                         \
  (cond) ? (void)0                                                \
         : ::bento::internal::LogMessageVoidify() &               \
               BENTO_LOG_INTERNAL(kFatal) << "Check failed: " #cond " "

#define BENTO_CHECK_OK(expr)                                        \
  do {                                                              \
    ::bento::Status _st = (expr);                                   \
    BENTO_CHECK(_st.ok()) << _st.ToString();                        \
  } while (false)

#define BENTO_DCHECK(cond) BENTO_CHECK(cond)

}  // namespace bento

#endif  // BENTO_UTIL_LOGGING_H_
