#include "obs/metrics.h"

#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace bento::obs {

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked: instruments are referenced from function-local statics in
  // instrumented code and must survive static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.get() : nullptr;
}

uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  return it != counters_.end() ? it->second->value() : 0;
}

int64_t MetricsRegistry::GaugeValue(std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second->value() : 0;
}

JsonValue MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lk(mu_);
  // The maps are ordered, so every section is emitted name-sorted — the
  // trace-embedded dump is byte-stable across runs with the same
  // instruments. Counters are uint64: route them through Number directly
  // (never an int64 cast, which flips values past 2^63 negative).
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, counter] : counters_) {
    counters.Set(name,
                 JsonValue::Number(static_cast<double>(counter->value())));
  }
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, gauge] : gauges_) {
    gauges.Set(name, JsonValue::Int(gauge->value()));
  }
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, hist] : histograms_) {
    histograms.Set(name, hist->ToJson());
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("counters", std::move(counters));
  doc.Set("gauges", std::move(gauges));
  doc.Set("histograms", std::move(histograms));
  return doc;
}

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; everything else
/// becomes '_'. All instruments share the bento_ prefix.
std::string PromName(const std::string& name) {
  std::string out = "bento_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void AppendLine(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendLine(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

}  // namespace

std::string MetricsRegistry::DumpPrometheusText() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    const std::string pn = PromName(name);
    AppendLine(&out, "# TYPE %s counter\n", pn.c_str());
    AppendLine(&out, "%s %" PRIu64 "\n", pn.c_str(), counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string pn = PromName(name);
    AppendLine(&out, "# TYPE %s gauge\n", pn.c_str());
    AppendLine(&out, "%s %" PRId64 "\n", pn.c_str(), gauge->value());
  }
  for (const auto& [name, hist] : histograms_) {
    const std::string pn = PromName(name);
    AppendLine(&out, "# TYPE %s histogram\n", pn.c_str());
    // Cumulative buckets at the histogram's own quantile summary edges keep
    // the dump compact while staying valid exposition format (le values
    // must be non-decreasing and end at +Inf).
    const uint64_t count = hist->count();
    for (double q : {0.5, 0.9, 0.95, 0.99}) {
      AppendLine(&out, "%s_bucket{le=\"%g\"} %" PRIu64 "\n", pn.c_str(),
                 hist->Quantile(q),
                 static_cast<uint64_t>(std::ceil(
                     q * static_cast<double>(count))));
    }
    AppendLine(&out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", pn.c_str(),
               count);
    AppendLine(&out, "%s_sum %g\n", pn.c_str(), hist->sum());
    AppendLine(&out, "%s_count %" PRIu64 "\n", pn.c_str(), count);
  }
  return out;
}

}  // namespace bento::obs
