#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <set>

#include "datagen/datasets.h"
#include "frame/engine.h"
#include "frame/exec.h"
#include "io/bcf.h"
#include "io/csv.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "plan/rules.h"
#include "sim/machine.h"

namespace perfbench {

using bento::JsonValue;
namespace frame = bento::frame;
namespace io = bento::io;
namespace run = bento::run;
namespace sim = bento::sim;

namespace {

constexpr int kProbeReps = 3;

/// The kernels timed one by one on the exact input their pipeline step
/// receives (OpKindName spelling).
const std::vector<std::string> kKernelOps = {
    "groupby", "merge", "sort",    "dedup", "query",
    "srchptn", "onehot", "pivot", "stats", "applyrow"};

double Seconds(const std::function<void()>& fn) {
  const double start = sim::NowSeconds();
  fn();
  return sim::NowSeconds() - start;
}

/// Median over kProbeReps calls of `fn`, each under a span named `name`.
double ProbeSeconds(SpanRecorder* spans, const std::string& name,
                    const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    SpanRecorder::Scope span(spans, name);
    samples.push_back(Seconds(fn));
  }
  return Median(samples);
}

/// Which instrumentation a pass of the workload runs under.
enum class PassKind { kUntraced, kTraced, kObsEnabled };

struct PassSet {
  std::vector<std::vector<RunSample>> untraced, traced;
  std::vector<double> untraced_wall, traced_wall, obs_wall;
  int64_t attempted = 0;
  int64_t failed = 0;
};

std::vector<RunSample> RunPass(Context* ctx, PassKind kind,
                               SpanRecorder* spans, double* wall_s) {
  std::vector<RunSample> samples;
  const double start = sim::NowSeconds();
  for (size_t cell : ShuffledCells(ctx)) {
    if (kind == PassKind::kObsEnabled) {
      bento::obs::StartTracing();
      bento::obs::EnableResourceSampling();
    }
    samples.push_back(
        RunCell(ctx, cell, kind == PassKind::kTraced ? spans : nullptr));
    if (kind == PassKind::kObsEnabled) {
      bento::obs::DisableResourceSampling();
      bento::obs::StopTracing();
    }
  }
  *wall_s = sim::NowSeconds() - start;
  return samples;
}

/// Untraced, traced and observability-enabled passes, in a seeded shuffled
/// order within each round; one round, more while the first half of the
/// time budget lasts.
PassSet RunPasses(Context* ctx, double seconds, SpanRecorder* spans) {
  PassSet set;
  const double start = sim::NowSeconds();
  std::vector<PassKind> kinds = {PassKind::kUntraced, PassKind::kTraced,
                                 PassKind::kObsEnabled};
  for (int round = 0;
       round < 1 || (sim::NowSeconds() - start < 0.5 * seconds && round < 500);
       ++round) {
    std::shuffle(kinds.begin(), kinds.end(), ctx->rng);
    for (PassKind kind : kinds) {
      double wall = 0.0;
      std::vector<RunSample> samples = RunPass(ctx, kind, spans, &wall);
      for (const RunSample& s : samples) {
        ++set.attempted;
        if (!s.ok || !ctx->cell_correct[s.cell]) ++set.failed;
      }
      switch (kind) {
        case PassKind::kUntraced:
          set.untraced.push_back(std::move(samples));
          set.untraced_wall.push_back(wall);
          break;
        case PassKind::kTraced:
          set.traced.push_back(std::move(samples));
          set.traced_wall.push_back(wall);
          break;
        case PassKind::kObsEnabled:
          set.obs_wall.push_back(wall);
          break;
      }
    }
  }
  return set;
}

/// Sum over cells of the per-cell median of `value` across passes.
double SumOfCellMedians(const Context& ctx,
                        const std::vector<std::vector<RunSample>>& passes,
                        const std::function<double(const RunSample&)>& value) {
  std::vector<std::vector<double>> per_cell(ctx.workload.cells.size());
  for (const auto& pass : passes) {
    for (const RunSample& s : pass) per_cell[s.cell].push_back(value(s));
  }
  double sum = 0.0;
  for (const auto& samples : per_cell) sum += Median(samples);
  return sum;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Unit of a per-layer metric, from its naming convention.
std::string UnitOf(const std::string& name) {
  const auto ends_with = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (name.find("bytes") != std::string::npos) return "bytes";
  if (ends_with("_us")) return "us";
  if (ends_with("_s")) return "s";
  if (ends_with("_ratio") || ends_with("_frac") || ends_with("_share") ||
      ends_with("_amp") || ends_with("headroom") || ends_with("_over_p1") ||
      ends_with("_per_row")) {
    return "ratio";
  }
  return "count";
}

/// 1 - peak/budget of one run; 1 on a machine without a memory budget.
double Headroom(const Context& ctx, const RunSample& s) {
  const Cell& cell = ctx.workload.cells[s.cell];
  const uint64_t budget =
      ctx.runner->EffectiveMachine(ctx.workload.Config(cell)).ram_bytes;
  return budget == 0 ? 1.0
                     : 1.0 - static_cast<double>(s.report.peak_host_bytes) /
                                 static_cast<double>(budget);
}

/// Writes, then reads back, every dataset of the workload through each
/// public I/O entry point; also times the generator.
void ProbeDatagenAndIo(Context* ctx, SpanRecorder* spans,
                       std::map<std::string, double>* out) {
  std::filesystem::remove_all(ctx->probe_dir);
  std::filesystem::create_directories(ctx->probe_dir);
  sim::ParallelOptions parallel;
  parallel.mode = sim::ExecutionMode::kReal;
  parallel.max_workers = ctx->nproc;
  io::BcfWriteOptions bcf_options;  // the Runner's row-group sizing
  bcf_options.row_group_rows = std::max<int64_t>(
      2048, static_cast<int64_t>(64.0 * 1024.0 * ctx->scale));
  for (const std::string& dataset : ctx->workload.datasets) {
    bento::col::TablePtr table;
    (*out)["datagen.generate_s"] += ProbeSeconds(
        spans, "datagen.GenerateDataset", [&] {
          table = bento::gen::GenerateDataset(dataset, ctx->scale, ctx->seed)
                      .ValueOrDie();
        });
    const std::string csv = ctx->probe_dir + "/" + dataset + ".csv";
    const std::string csv_par = ctx->probe_dir + "/" + dataset + "_par.csv";
    const std::string bcf = ctx->probe_dir + "/" + dataset + ".bcf";
    (*out)["io.csv_write_s"] += ProbeSeconds(spans, "io.WriteCsv", [&] {
      CheckOk(io::WriteCsv(table, csv));
    });
    (*out)["io.csv_write_parallel_s"] +=
        ProbeSeconds(spans, "io.WriteCsvParallel", [&] {
          CheckOk(io::WriteCsvParallel(table, csv_par, {}, parallel));
        });
    (*out)["io.bcf_write_s"] += ProbeSeconds(spans, "io.WriteBcf", [&] {
      CheckOk(io::WriteBcf(table, bcf, bcf_options));
    });
    (*out)["io.csv_read_s"] += ProbeSeconds(spans, "io.ReadCsv", [&] {
      io::ReadCsv(csv).ValueOrDie();
    });
    (*out)["io.csv_read_mmap_s"] += ProbeSeconds(spans, "io.ReadCsvMmap", [&] {
      io::ReadCsvMmap(csv, {}, parallel).ValueOrDie();
    });
    (*out)["io.csv_chunk_read_s"] +=
        ProbeSeconds(spans, "io.CsvChunkReader", [&] {
          auto reader = io::CsvChunkReader::Open(csv).ValueOrDie();
          while (reader->Next().ValueOrDie() != nullptr) {
          }
        });
    (*out)["io.bcf_read_s"] += ProbeSeconds(spans, "io.BcfReader", [&] {
      io::BcfReader::Open(bcf).ValueOrDie()->ReadAll().ValueOrDie();
    });
  }
}

/// The pipeline's ops with the aux merge input resolved to a pandas frame.
std::vector<frame::Op> ResolvedOps(const run::Pipeline& pipeline,
                                   uint64_t seed) {
  auto pandas = frame::CreateEngine("pandas").ValueOrDie();
  std::vector<frame::Op> ops;
  for (const run::PipelineStep& step : pipeline.steps) {
    frame::Op op = step.op;
    if (op.kind == frame::OpKind::kMerge && op.other == nullptr) {
      op.other = pandas
                     ->FromTable(bento::gen::GenerateRegionsTable(seed)
                                     .ValueOrDie())
                     .ValueOrDie();
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// RuleDriver::Run on each pipeline's carried transforms (the plan a lazy
/// engine holds at the final collect).
void ProbePlan(Context* ctx, SpanRecorder* spans,
               std::map<std::string, double>* out) {
  double ops_in = 0.0;
  double ops_out = 0.0;
  const bento::plan::RuleDriver driver{bento::plan::OptimizerPolicy{}};
  for (const std::string& dataset : ctx->workload.datasets) {
    const run::Pipeline& pipeline = ctx->workload.pipelines.at(dataset);
    const std::vector<frame::Op> ops = ResolvedOps(pipeline, ctx->seed);
    bento::plan::LogicalPlan plan;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!frame::IsAction(ops[i].kind) && pipeline.steps[i].carry) {
        plan.ops.push_back(ops[i]);
      }
    }
    size_t kept = 0;
    (*out)["plan.optimize_us"] +=
        1e6 * ProbeSeconds(spans, "plan.RuleDriver::Run", [&] {
          kept = driver.Run(plan, bento::plan::PlanContext{}).ops.size();
        });
    ops_in += static_cast<double>(plan.ops.size());
    ops_out += static_cast<double>(kept);
  }
  (*out)["plan.ops_kept_ratio"] = Ratio(ops_out, ops_in);
}

/// Times each kernel op of every pipeline with ExecTransform/ExecAction on
/// the table that step receives, under the serial and the parallel policy.
void ProbeKernels(Context* ctx, SpanRecorder* spans,
                  std::map<std::string, double>* out) {
  sim::Session session(sim::MachineSpec{"probe", ctx->nproc, 0, std::nullopt});
  session.set_execution_mode(sim::ExecutionMode::kReal);
  frame::ExecPolicy serial;
  frame::ExecPolicy parallel;
  parallel.parallel = true;
  parallel.parallel_options.mode = sim::ExecutionMode::kReal;
  parallel.parallel_options.max_workers = ctx->nproc;
  const std::set<std::string> timed(kKernelOps.begin(), kKernelOps.end());
  for (const std::string& op_name : kKernelOps) {
    (*out)["kernels." + op_name + ".serial_s"] += 0.0;
    (*out)["kernels." + op_name + ".parallel_s"] += 0.0;
  }
  for (const std::string& dataset : ctx->workload.datasets) {
    const run::Pipeline& pipeline = ctx->workload.pipelines.at(dataset);
    const std::vector<frame::Op> ops = ResolvedOps(pipeline, ctx->seed);
    bento::col::TablePtr table =
        io::ReadCsv(ctx->probe_dir + "/" + dataset + ".csv").ValueOrDie();
    for (size_t i = 0; i < ops.size(); ++i) {
      const frame::Op& op = ops[i];
      const std::string name = frame::OpKindName(op.kind);
      const bool action = frame::IsAction(op.kind);
      auto exec = [&](const frame::ExecPolicy& policy) {
        if (action) {
          frame::ExecAction(table, op, policy).ValueOrDie();
          return table;
        }
        return frame::ExecTransform(table, op, policy).ValueOrDie();
      };
      if (timed.count(name) > 0) {
        (*out)["kernels." + name + ".serial_s"] += ProbeSeconds(
            spans, "kernels." + name + ".serial",
            [&] { exec(serial); });
        (*out)["kernels." + name + ".parallel_s"] += ProbeSeconds(
            spans, "kernels." + name + ".parallel",
            [&] { exec(parallel); });
      }
      if (!action && pipeline.steps[i].carry) table = exec(serial);
    }
  }
}

struct Scaling {
  double pn_over_p1 = 0.0;      ///< geometric mean over cells; 0 without cells
  double pn_failed_frac = 0.0;  ///< nproc-worker runs that failed
  double pn_headroom = 1.0;     ///< 1 - peak/budget, lowest nproc-worker run
  double pn_chunks = 0.0;       ///< driver chunks per nproc-worker round
  double pn_stalls = 0.0;       ///< prefetch stalls per nproc-worker round
};

/// Median wall time of each pipeline-driver cell at 1 and at nproc pipeline
/// workers (set through BENTO_PIPELINE_WORKERS), one run per arm and round,
/// rounds repeated while `seconds` last. Ratios use successful runs only.
/// The driver and prefetch counters come from the nproc-worker arm: at one
/// worker in real mode the driver runs inline, with neither.
Scaling PipelineScaling(Context* ctx, const std::vector<size_t>& cells,
                        double seconds) {
  Scaling out;
  if (cells.empty()) return out;
  const char* pinned = std::getenv("BENTO_PIPELINE_WORKERS");
  const std::string restore = pinned != nullptr ? pinned : "";
  std::vector<std::vector<double>> p1(ctx->workload.cells.size());
  std::vector<std::vector<double>> pn(ctx->workload.cells.size());
  const std::string nproc = std::to_string(ctx->nproc);
  int pn_runs = 0;
  int pn_failed = 0;
  Counters pn_counters;
  int rounds = 0;
  const double start = sim::NowSeconds();
  for (; rounds < 1 || (sim::NowSeconds() - start < seconds && rounds < 500);
       ++rounds) {
    for (size_t cell : cells) {
      for (int arm = 0; arm < 2; ++arm) {
        const bool one = (arm + rounds) % 2 == 0;  // alternate which arm leads
        setenv("BENTO_PIPELINE_WORKERS", one ? "1" : nproc.c_str(), 1);
        const Counters before = one ? Counters{} : SnapshotCounters();
        const RunSample s = RunCell(ctx, cell);
        if (s.ok) (one ? p1 : pn)[cell].push_back(s.wall_s);
        if (one) continue;
        for (const auto& [name, value] :
             CounterDelta(before, SnapshotCounters())) {
          pn_counters[name] += value;
        }
        ++pn_runs;
        if (!s.ok) ++pn_failed;
        if (s.ok) out.pn_headroom = std::min(out.pn_headroom, Headroom(*ctx, s));
      }
    }
  }
  if (pinned != nullptr) {
    setenv("BENTO_PIPELINE_WORKERS", restore.c_str(), 1);
  } else {
    unsetenv("BENTO_PIPELINE_WORKERS");
  }
  std::vector<double> ratios;
  for (size_t cell : cells) {
    if (!pn[cell].empty() && !p1[cell].empty()) {
      ratios.push_back(Median(pn[cell]) / Median(p1[cell]));
    }
  }
  out.pn_over_p1 = GeoMean(ratios);
  out.pn_failed_frac = Ratio(pn_failed, pn_runs);
  out.pn_chunks =
      static_cast<double>(Get(pn_counters, "pipeline.chunks")) / rounds;
  out.pn_stalls =
      static_cast<double>(Get(pn_counters, "pipeline.prefetch.stalls")) / rounds;
  return out;
}

}  // namespace

Outcome MeasureLayers(Context* ctx, double seconds, SpanRecorder* spans) {
  const Workload& w = ctx->workload;
  Outcome out;
  std::map<std::string, double> m;

  // --- passes: stage times, counters, modeled share, overheads -----------
  PassSet passes = RunPasses(ctx, seconds, spans);
  out.attempted = passes.attempted;
  out.failed = passes.failed;
  const double n_traced = static_cast<double>(passes.traced.size());
  Counters total;
  std::vector<Counters> per_cell(w.cells.size());
  for (const auto& pass : passes.traced) {
    for (const RunSample& s : pass) {
      for (const auto& [name, value] : s.counters) {
        total[name] += value;
        per_cell[s.cell][name] += value;
      }
    }
  }
  auto per_pass = [&](const std::string& name) {
    return static_cast<double>(Get(total, name)) / n_traced;
  };
  double input_rows = 0.0;
  double input_bytes = 0.0;
  for (size_t c = 0; c < w.cells.size(); ++c) {
    input_rows += static_cast<double>(ctx->cell_rows[c]);
    input_bytes += static_cast<double>(ctx->cell_bytes[c]);
  }

  for (const auto& [stage, key] :
       std::vector<std::pair<frame::Stage, std::string>>{
           {frame::Stage::kIO, "io"},
           {frame::Stage::kEDA, "eda"},
           {frame::Stage::kDT, "dt"},
           {frame::Stage::kDC, "dc"}}) {
    m["bento.stage." + key + "_s"] =
        SumOfCellMedians(*ctx, passes.untraced, [stage](const RunSample& s) {
          auto it = s.report.stage_seconds.find(stage);
          return it == s.report.stage_seconds.end() ? 0.0 : it->second;
        });
  }

  for (const auto& [metric, counter] :
       std::vector<std::pair<std::string, std::string>>{
           {"io.csv.bytes_read", "io.csv.bytes_read"},
           {"io.bcf.bytes_read", "io.bcf.bytes_read"},
           {"io.bcf.bytes_mapped", "io.bcf.bytes_mapped"},
           {"io.csv.columns_skipped", "io.csv.columns_skipped"},
           {"io.bcf.groups_skipped", "io.bcf.groups_skipped"},
           {"kernels.join.probe_pairs", "join.probe.pairs"},
           {"kernels.sort.merge_segments", "sort.merge.segments"},
           {"kernels.groupby.morsel_partitions", "groupby.morsel.partitions"},
           {"sim.pool.submits", "pool.submits"},
           {"sim.pool.steals", "pool.steals"},
           {"sim.parallel_for.real_tasks", "sim.parallel_for.real_tasks"},
           {"sim.parallel_for.sim_tasks", "sim.parallel_for.sim_tasks"},
           {"sim.morsel.ranges", "pool.morsel.ranges"},
           {"sim.spill.bytes_written", "spill.bytes_written"},
           {"sim.spill.bytes_read", "spill.bytes_read"},
           {"sim.spill.files", "spill.files"},
           {"engines.lazy.stream_chunks", "lazy.stream_chunks"},
           {"engines.lazy.mapped_materializations",
            "lazy.mapped_materializations"},
           {"engines.join.grace_runs", "join.grace_runs"},
           {"engines.groupby.spill_engaged", "groupby.spill_engaged"},
       }) {
    m[metric] = per_pass(counter);
  }
  m["plan.rewrites"] = static_cast<double>(SumPrefix(total, "plan.rewrite.")) /
                       n_traced;
  const double probes =
      per_pass("flat_index.build_probes") + per_pass("flat_grouper.probes");
  const double collisions = per_pass("flat_index.build_collisions") +
                            per_pass("flat_grouper.collisions");
  m["kernels.hash.probes_per_row"] = Ratio(probes, input_rows);
  m["kernels.hash.collision_ratio"] = Ratio(collisions, probes);
  m["sim.steal_ratio"] = Ratio(m["sim.pool.steals"], m["sim.pool.submits"]);
  m["sim.spill.write_amp"] = Ratio(m["sim.spill.bytes_written"], input_bytes);

  // Derived: virtual time the simulator adds on top of measured wall time.
  const double virtual_s = SumOfCellMedians(
      *ctx, passes.untraced,
      [](const RunSample& s) { return s.report.total_seconds; });
  m["sim.modeled_s"] = SumOfCellMedians(
      *ctx, passes.untraced,
      [](const RunSample& s) { return s.report.total_seconds - s.wall_s; });
  m["sim.modeled_share"] = Ratio(m["sim.modeled_s"], virtual_s);

  double headroom = 1.0;
  for (const auto& pass : passes.untraced) {
    for (const RunSample& s : pass) {
      headroom = std::min(headroom, Headroom(*ctx, s));
    }
  }
  m["sim.pool_headroom"] = headroom;

  const double untraced_wall = Median(passes.untraced_wall);
  m["obs.trace_overhead_frac"] =
      Median(passes.traced_wall) / untraced_wall - 1.0;
  m["obs.enabled_overhead_frac"] =
      Median(passes.obs_wall) / untraced_wall - 1.0;

  // --- probes: direct calls into datagen, io, plan and kernels -----------
  ProbeDatagenAndIo(ctx, spans, &m);
  ProbePlan(ctx, spans, &m);
  ProbeKernels(ctx, spans, &m);

  // --- real-core scaling of the pipeline driver --------------------------
  // Cells that stream chunks; at more than one worker their chunks go
  // through the threaded pipeline driver.
  std::vector<size_t> driver_cells;
  for (size_t c = 0; c < w.cells.size(); ++c) {
    if (Get(per_cell[c], "lazy.stream_chunks") > 0 ||
        Get(per_cell[c], "pipeline.chunks") > 0) {
      driver_cells.push_back(c);
    }
  }
  const Scaling scaling = PipelineScaling(ctx, driver_cells, 0.25 * seconds);
  m["engines.pipeline.p4_over_p1"] = scaling.pn_over_p1;
  m["engines.pipeline.pn_failed_frac"] = scaling.pn_failed_frac;
  m["engines.pipeline.pn_pool_headroom"] = scaling.pn_headroom;
  m["engines.pipeline.chunks"] = scaling.pn_chunks;
  m["engines.pipeline.prefetch_stalls"] = scaling.pn_stalls;
  m["engines.pipeline.stall_ratio"] =
      Ratio(scaling.pn_stalls, scaling.pn_chunks);

  // --- predicted zeros: properties of the workload's set-up --------------
  JsonValue violations = JsonValue::Array();
  auto expect_zero = [&](const std::string& what, double value) {
    if (value == 0.0) return;
    violations.Append(JsonValue::Str(what + " = " + std::to_string(value)));
    std::fprintf(stderr, "predicted zero violated on %s: %s = %g\n",
                 w.name.c_str(), what.c_str(), value);
  };
  for (const std::string& name : w.predicted_zero) expect_zero(name, m.at(name));
  for (size_t c = 0; c < w.cells.size(); ++c) {
    if (std::count(w.predicted_no_csv.begin(), w.predicted_no_csv.end(),
                   w.cells[c].engine) > 0) {
      expect_zero(w.cells[c].Name() + " io.csv.bytes_read",
                  static_cast<double>(Get(per_cell[c], "io.csv.bytes_read")));
    }
  }
  m["checks.predicted_zero_violations"] =
      static_cast<double>(violations.size());

  for (const auto& [name, value] : m) {
    out.metrics.push_back({name, value, UnitOf(name)});
  }

  out.details.Set("traced_passes", JsonValue::Int(passes.traced.size()));
  out.details.Set("untraced_passes", JsonValue::Int(passes.untraced.size()));
  out.details.Set("obs_enabled_passes", JsonValue::Int(passes.obs_wall.size()));
  JsonValue driver = JsonValue::Array();
  for (size_t c : driver_cells) driver.Append(JsonValue::Str(w.cells[c].Name()));
  out.details.Set("pipeline_driver_cells", std::move(driver));
  out.details.Set("p4_over_p1_workers", JsonValue::Int(ctx->nproc));
  out.details.Set("engines.pipeline.chunks", JsonValue::Str(
      "pipeline.chunks per round of the nproc-worker arm over the "
      "pipeline-driver cells; prefetch_stalls and stall_ratio likewise"));
  out.details.Set("predicted_zero_violations", std::move(violations));
  out.details.Set("sim.modeled_s", JsonValue::Str(
      "derived: virtual time (RunReport::total_seconds) minus the "
      "benchmark's wall time of Runner::Run, summed over cell medians"));
  return out;
}

}  // namespace perfbench
