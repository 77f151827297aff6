#ifndef BENTO_OBS_METRICS_H_
#define BENTO_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/histogram.h"
#include "util/json.h"

namespace bento::obs {

/// \brief Monotonic counter. Increments are relaxed atomic adds, cheap
/// enough for per-task/per-build sites; hot loops should accumulate locally
/// and Add() once per batch (the FlatIndex build-stats pattern).
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-value / high-water gauge.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` when larger (high-water-mark semantics).
  void UpdateMax(int64_t v) {
    int64_t prev = value_.load(std::memory_order_relaxed);
    while (v > prev &&
           !value_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Process-wide registry of named counters and gauges.
///
/// Lookup is a mutex-guarded map; instruments are created on first use and
/// their addresses are stable for the process lifetime, so hot sites cache
/// the pointer in a function-local static and pay only the atomic add.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Find-or-create; the returned pointer never invalidates.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Value of a counter/gauge, or 0 when it was never created.
  uint64_t CounterValue(std::string_view name) const;
  int64_t GaugeValue(std::string_view name) const;
  /// The named histogram, or nullptr when it was never created.
  const Histogram* FindHistogram(std::string_view name) const;

  /// Flat snapshot: {"counters": {...}, "gauges": {...}, "histograms":
  /// {...}}. Sections and names are emitted in sorted order; counter values
  /// go through an unsigned-safe number path (no int64 cast, so values past
  /// 2^63 cannot flip negative — byte counters get there on long-lived
  /// service processes).
  JsonValue ToJson() const;

  /// \brief Plain-text dump in the Prometheus exposition format, the body a
  /// service front-end serves at /metrics: `# TYPE` headers, sanitized
  /// `bento_`-prefixed names, histograms as cumulative `_bucket{le=...}`
  /// series plus `_sum`/`_count`.
  std::string DumpPrometheusText() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace bento::obs

#endif  // BENTO_OBS_METRICS_H_
