// State shared by the untraced (end-to-end) and traced (per-layer) runs of
// one workload, and the helpers both use.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bento/runner.h"
#include "spans.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

/// One reported metric: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// What one run of a workload reports.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
  bento::JsonValue details = bento::JsonValue::Object();
};

/// Snapshot of every counter in obs::MetricsRegistry.
using Counters = std::map<std::string, uint64_t>;
Counters SnapshotCounters();
/// after - before, per name (names missing before count from 0).
Counters CounterDelta(const Counters& before, const Counters& after);
/// Sum of the counters whose name starts with `prefix`.
uint64_t SumPrefix(const Counters& counters, const std::string& prefix);
uint64_t Get(const Counters& counters, const std::string& name);

struct Context {
  Workload workload;
  uint64_t seed = 0;  ///< datagen seed and cell-order seed
  double scale = 0.001;
  int nproc = 1;
  std::string data_dir;   ///< the Runner's CSV/BCF cache
  std::string probe_dir;  ///< temporary files of the traced run's I/O probes
  std::unique_ptr<bento::run::Runner> runner;
  std::mt19937_64 rng;
  /// Per cell: its final table was computed and matched the reference.
  /// Runs of other cells count as failed.
  std::vector<bool> cell_correct;
  /// No cell produced a final table that differs from the reference (a
  /// cell whose check run failed is unverified, not wrong).
  bool outputs_correct = true;
  /// Source rows and source-file bytes per cell.
  std::vector<int64_t> cell_rows;
  std::vector<uint64_t> cell_bytes;
};

struct RunSample {
  size_t cell = 0;
  bool ok = false;
  double wall_s = 0.0;
  bento::run::RunReport report;
  Counters counters;  ///< counter deltas (traced runs only)
};

/// One Runner::Run of `ctx.workload.cells[cell]`, timed by the benchmark.
/// With `spans` set, the call runs under a "bento.Runner::Run" span and the
/// sample carries the run's counter deltas.
RunSample RunCell(Context* ctx, size_t cell, SpanRecorder* spans = nullptr);

/// The workload's cells in a fresh seeded shuffle.
std::vector<size_t> ShuffledCells(Context* ctx);

/// Ends the process with the status on stderr unless it is OK (set-up and
/// probe calls that the benchmark cannot continue without).
void CheckOk(const bento::Status& status);

double Median(std::vector<double> values);
double GeoMean(const std::vector<double>& values);

/// Process-wide settings the benchmark pins: pool threads, pipeline
/// workers. Applied before the first run touches the thread pool.
void PinEnvironment(const Workload& workload, int nproc);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
