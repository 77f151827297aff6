#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"
#include "sim/machine.h"

namespace perfbench {

Counters SnapshotCounters() {
  Counters out;
  const bento::JsonValue json = bento::obs::MetricsRegistry::Global().ToJson();
  for (const auto& [name, value] : json.Get("counters").members()) {
    out[name] = static_cast<uint64_t>(value.number_value());
  }
  return out;
}

Counters CounterDelta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) {
    out[name] = value - Get(before, name);
  }
  return out;
}

uint64_t SumPrefix(const Counters& counters, const std::string& prefix) {
  uint64_t sum = 0;
  for (auto it = counters.lower_bound(prefix);
       it != counters.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    sum += it->second;
  }
  return sum;
}

uint64_t Get(const Counters& counters, const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

RunSample RunCell(Context* ctx, size_t cell, SpanRecorder* spans) {
  const Cell& c = ctx->workload.cells[cell];
  const bento::run::RunConfig config = ctx->workload.Config(c);
  const bento::run::Pipeline& pipeline = ctx->workload.pipelines.at(c.dataset);
  RunSample sample;
  sample.cell = cell;
  Counters before;
  if (spans != nullptr) {
    spans->NewRun();
    before = SnapshotCounters();
  }
  {
    SpanRecorder::Scope span(spans, "bento.Runner::Run");
    const double start = bento::sim::NowSeconds();
    auto report = ctx->runner->Run(config, pipeline, c.dataset);
    sample.wall_s = bento::sim::NowSeconds() - start;
    if (report.ok()) {
      sample.report = report.MoveValueUnsafe();
      sample.ok = sample.report.status.ok();
    }
  }
  if (spans != nullptr) sample.counters = CounterDelta(before, SnapshotCounters());
  return sample;
}

std::vector<size_t> ShuffledCells(Context* ctx) {
  std::vector<size_t> order(ctx->workload.cells.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), ctx->rng);
  return order;
}

void CheckOk(const bento::Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
  std::exit(1);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void PinEnvironment(const Workload& workload, int nproc) {
  // No pool may use more threads than the host has CPUs.
  setenv("BENTO_POOL_THREADS", std::to_string(nproc).c_str(), 1);
  if (workload.pipeline_workers > 0) {
    setenv("BENTO_PIPELINE_WORKERS",
           std::to_string(workload.pipeline_workers).c_str(), 1);
  } else {
    unsetenv("BENTO_PIPELINE_WORKERS");
  }
}

}  // namespace perfbench
