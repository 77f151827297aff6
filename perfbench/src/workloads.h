// The benchmark's three workloads: which pipelines run on which engines,
// under which machine model, run mode and execution backend.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "bento/pipeline.h"
#include "bento/runner.h"

namespace perfbench {

/// One (dataset, engine) pair of a workload.
struct Cell {
  std::string dataset;
  std::string engine;
  bool bcf_source = false;

  std::string Name() const { return dataset + "/" + engine; }
};

/// A cell the workload leaves out on purpose, with the reason.
struct ExcludedCell {
  Cell cell;
  std::string reason;
};

struct Workload {
  std::string name;
  std::string why;
  bento::run::RunMode mode = bento::run::RunMode::kPipelineFull;
  bento::sim::MachineSpec machine;
  bento::sim::ExecutionMode execution = bento::sim::ExecutionMode::kSimulated;
  /// Pipeline workers the benchmark pins through BENTO_PIPELINE_WORKERS
  /// (0 leaves the engine's own choice).
  int pipeline_workers = 0;
  std::vector<std::string> datasets;
  std::vector<Cell> cells;
  std::vector<ExcludedCell> excluded;
  /// Per-layer metrics the workload's set-up predicts to stay zero in the
  /// traced run; a non-zero value means the workload does not exercise
  /// what it claims.
  std::vector<std::string> predicted_zero;
  /// Engines whose cells the set-up predicts to read no CSV bytes.
  std::vector<std::string> predicted_no_csv;
  std::map<std::string, bento::run::Pipeline> pipelines;  ///< by dataset

  bento::run::RunConfig Config(const Cell& cell) const;
  bool UsesCsv(const std::string& dataset) const;
  bool UsesBcf(const std::string& dataset) const;
};

/// The named workload; fails on an unknown name.
bento::Result<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
