// perfbench: runs one workload of the repo benchmark and prints its metrics.
//
//   perfbench --workload <small_sim|inmem_real|ooc_real> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> [--git-sha <sha>]
//
// Every run sets up the workload's data (generate, write CSV/BCF, one
// warm-up pass) and checks each cell's final table against the pandas
// reference. --trace 0 measures the end-to-end metrics in a seeded closed
// loop of untraced Runner::Run calls for --seconds in total; --trace 1
// measures the per-layer metrics (see layers.h). The last line of standard
// output is {"correct", "attempted", "failed", "metrics"}; the full,
// self-describing result (seed, host, build, BENTO_* settings, check
// details, per-cell samples) goes to
// <work-dir>/result-<workload>-seed<n>-trace<t>.json.
#include <malloc.h>
#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench.h"
#include "check.h"
#include "layers.h"
#include "sim/machine.h"

extern char** environ;

namespace perfbench {
namespace {

using bento::JsonValue;
using bento::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

/// The number after `key` (e.g. "Threads:") in /proc/self/status; 0 if absent.
int64_t ProcStatus(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::stoll(line.substr(key.size()));
  }
  return 0;
}

/// Starts a new peak-RSS window: hands freed heap back to the kernel, then
/// resets the high-water mark (VmHWM) to the current RSS, so that set-up and
/// the output check, which run in the same process, do not count.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;
  if (!clear_refs) {
    std::fprintf(stderr, "perfbench: cannot reset the peak RSS through "
                         "/proc/self/clear_refs\n");
    std::exit(1);
  }
}

/// Peak RSS since the last ResetPeakRss.
double PeakRssMib() {
  return static_cast<double>(ProcStatus("VmHWM:")) / 1024.0;  // kB
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

JsonValue BentoEnvironment() {
  JsonValue env = JsonValue::Object();
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("BENTO_", 0) != 0) continue;
    const size_t eq = entry.find('=');
    env.Set(entry.substr(0, eq), JsonValue::Str(entry.substr(eq + 1)));
  }
  return env;
}

/// Generates the workload's datasets into an empty data dir, writes their
/// CSV/BCF files and runs one warm-up pass over the cells; returns the wall
/// seconds of the three. The warm-up drives each cell through FinalTable,
/// so with `check` set it doubles as the output check: each final table is
/// compared with the pandas reference (computed and compared outside the
/// timed part), cell_correct, cell_rows and cell_bytes are filled, each
/// excluded cell runs once to record why it is out, and the report goes to
/// `check`.
double SetUp(Context* ctx, JsonValue* check) {
  const Workload& w = ctx->workload;
  double start = bento::sim::NowSeconds();
  std::filesystem::remove_all(ctx->data_dir);
  std::filesystem::create_directories(ctx->data_dir);
  ctx->runner = std::make_unique<bento::run::Runner>(ctx->data_dir, ctx->scale,
                                                     ctx->seed);
  for (const std::string& dataset : w.datasets) {
    if (w.UsesCsv(dataset)) ctx->runner->EnsureCsv(dataset).ValueOrDie();
    if (w.UsesBcf(dataset)) ctx->runner->EnsureBcf(dataset).ValueOrDie();
  }
  double elapsed = bento::sim::NowSeconds() - start;

  // Reference tables and source row counts, by dataset.
  std::map<std::string, bento::Result<bento::col::TablePtr>> reference;
  std::map<std::string, int64_t> rows;
  if (check != nullptr) {
    for (const std::string& dataset : w.datasets) {
      reference.emplace(dataset, FinalTable(ctx->runner.get(), ReferenceConfig(),
                                            w.pipelines.at(dataset), dataset,
                                            ctx->seed, &rows[dataset]));
    }
    ctx->cell_correct.assign(w.cells.size(), false);
    ctx->cell_rows.assign(w.cells.size(), 0);
    ctx->cell_bytes.assign(w.cells.size(), 0);
  }

  std::vector<JsonValue> rows_out(w.cells.size());
  for (size_t i : ShuffledCells(ctx)) {
    const Cell& cell = w.cells[i];
    start = bento::sim::NowSeconds();
    auto got = FinalTable(ctx->runner.get(), w.Config(cell),
                          w.pipelines.at(cell.dataset), cell.dataset, ctx->seed);
    elapsed += bento::sim::NowSeconds() - start;
    if (check == nullptr) continue;

    const auto& expected = reference.at(cell.dataset);
    Status status = expected.ok() ? got.status() : expected.status();
    if (status.ok()) {
      status = CompareTables(expected.ValueOrDie(), got.ValueOrDie());
      if (!status.ok()) ctx->outputs_correct = false;
    }
    ctx->cell_correct[i] = status.ok();
    ctx->cell_rows[i] = rows[cell.dataset];
    ctx->cell_bytes[i] = FileBytes(
        cell.bcf_source ? ctx->runner->EnsureBcf(cell.dataset).ValueOrDie()
                        : ctx->runner->EnsureCsv(cell.dataset).ValueOrDie());
    rows_out[i] = JsonValue::Object();
    rows_out[i].Set("cell", JsonValue::Str(cell.Name()));
    rows_out[i].Set("verified", JsonValue::Bool(status.ok()));
    if (!status.ok()) {
      rows_out[i].Set("detail", JsonValue::Str(status.ToString()));
      std::fprintf(stderr, "output check failed: %s: %s\n",
                   cell.Name().c_str(), status.ToString().c_str());
    }
  }
  if (check == nullptr) return elapsed;

  JsonValue cells = JsonValue::Array();
  for (JsonValue& row : rows_out) cells.Append(std::move(row));
  JsonValue excluded = JsonValue::Array();
  for (const ExcludedCell& ex : w.excluded) {
    auto report = ctx->runner->Run(
        w.Config(ex.cell), w.pipelines.at(ex.cell.dataset), ex.cell.dataset);
    const Status status = report.ok() ? report.ValueOrDie().status
                                      : report.status();
    JsonValue row = JsonValue::Object();
    row.Set("cell", JsonValue::Str(ex.cell.Name()));
    row.Set("reason", JsonValue::Str(ex.reason));
    row.Set("status", JsonValue::Str(status.ToString()));
    excluded.Append(std::move(row));
  }
  *check = JsonValue::Object();
  check->Set("reference", JsonValue::Str("pandas, simulated, full pipeline, "
                                         "CSV, unbounded memory"));
  check->Set("cells", std::move(cells));
  check->Set("excluded", std::move(excluded));
  return elapsed;
}

/// One timed segment of the end-to-end run: a closed loop with one client,
/// cells in a fresh shuffled round-robin order on every pass. Runs whole
/// passes, so every cell is sampled equally often, for as close to
/// `seconds` as whole passes allow (at least one). Appends to `samples` and
/// the segment's peak RSS to `peak_rss_mib`; returns the segment's wall
/// seconds.
double RunTimed(Context* ctx, double seconds, std::vector<RunSample>* samples,
                int* passes, std::vector<double>* peak_rss_mib) {
  ResetPeakRss();
  const double start = bento::sim::NowSeconds();
  double elapsed = 0.0;
  for (int n = 1;; ++n) {
    for (size_t cell : ShuffledCells(ctx)) samples->push_back(RunCell(ctx, cell));
    ++*passes;
    elapsed = bento::sim::NowSeconds() - start;
    // Stop when another pass would overshoot by more than half a pass.
    if (elapsed + 0.5 * elapsed / n >= seconds) break;
  }
  peak_rss_mib->push_back(PeakRssMib());
  return elapsed;
}

/// The end-to-end metrics of the timed segments' samples.
Outcome EndToEnd(const Context& ctx, const std::vector<RunSample>& samples,
                 double timed_s, int passes,
                 const std::vector<double>& peak_rss_mib,
                 const std::vector<double>& setup_s) {
  const size_t n_cells = ctx.workload.cells.size();
  Outcome out;
  std::vector<std::vector<double>> wall(n_cells), virt(n_cells);
  std::vector<double> pooled;
  double rows = 0.0;
  uint64_t peak = 0;
  for (const RunSample& s : samples) {
    ++out.attempted;
    const bool good = s.ok && ctx.cell_correct[s.cell];
    if (!good) {
      ++out.failed;
      continue;
    }
    wall[s.cell].push_back(s.wall_s);
    virt[s.cell].push_back(s.report.total_seconds);
    pooled.push_back(s.wall_s);
    rows += static_cast<double>(ctx.cell_rows[s.cell]);
    peak = std::max(peak, s.report.peak_host_bytes);
  }
  std::vector<double> cell_wall, cell_virtual;
  for (size_t c = 0; c < n_cells; ++c) {
    if (wall[c].empty()) continue;
    cell_wall.push_back(Median(wall[c]));
    cell_virtual.push_back(Median(virt[c]));
  }
  // Pooled p90 by nearest rank; the samples beyond it are reported with it.
  std::sort(pooled.begin(), pooled.end());
  const size_t rank = pooled.empty() ? 0 : (pooled.size() * 9 + 9) / 10 - 1;
  const double p90 = pooled.empty() ? 0.0 : pooled[rank];
  const size_t beyond = pooled.empty() ? 0 : pooled.size() - rank - 1;

  const double ok_frac =
      static_cast<double>(out.attempted - out.failed) /
      static_cast<double>(std::max<int64_t>(out.attempted, 1));
  out.metrics = {
      {"pipeline_s", GeoMean(cell_wall), "s"},
      {"rows_per_s", rows / timed_s, "rows/s"},
      {"virtual_s", GeoMean(cell_virtual), "s"},
      {"peak_mib", static_cast<double>(peak) / (1024.0 * 1024.0), "MiB"},
      {"rss_mib", *std::max_element(peak_rss_mib.begin(), peak_rss_mib.end()),
       "MiB"},
      {"ok_frac", ok_frac, "ratio"},
      {"setup_s", Median(setup_s), "s"},
  };
  out.details.Set("rss_mib", JsonValue::Str(
      "largest VmHWM of the timed segments; before each, freed heap is "
      "trimmed and the high-water mark reset through /proc/self/clear_refs"));
  JsonValue rss = JsonValue::Array();
  for (double v : peak_rss_mib) rss.Append(JsonValue::Number(v));
  out.details.Set("rss_mib_samples", std::move(rss));
  out.details.Set("passes", JsonValue::Int(passes));
  out.details.Set("timed_s", JsonValue::Number(timed_s));
  // The pooled p90 counts only with at least ten samples beyond it, which
  // the slower workloads do not reach in one run; it is recorded here, with
  // its sample counts, rather than as a headline metric.
  JsonValue tail = JsonValue::Object();
  tail.Set("pipeline_s_p90", JsonValue::Number(p90));
  tail.Set("samples", JsonValue::Int(static_cast<int64_t>(pooled.size())));
  tail.Set("samples_beyond", JsonValue::Int(static_cast<int64_t>(beyond)));
  tail.Set("valid", JsonValue::Bool(beyond >= 10));
  out.details.Set("tail", std::move(tail));
  JsonValue setups = JsonValue::Array();
  for (double s : setup_s) setups.Append(JsonValue::Number(s));
  out.details.Set("setup_s_samples", std::move(setups));
  JsonValue per_cell = JsonValue::Object();
  for (size_t c = 0; c < n_cells; ++c) {
    JsonValue row = JsonValue::Object();
    row.Set("runs", JsonValue::Int(static_cast<int64_t>(wall[c].size())));
    row.Set("median_wall_s", JsonValue::Number(Median(wall[c])));
    row.Set("median_virtual_s", JsonValue::Number(Median(virt[c])));
    JsonValue walls = JsonValue::Array();
    for (double v : wall[c]) walls.Append(JsonValue::Number(v));
    row.Set("wall_s", std::move(walls));
    per_cell.Set(ctx.workload.cells[c].Name(), std::move(row));
  }
  out.details.Set("cells", std::move(per_cell));
  return out;
}

JsonValue MetricsJson(const Metrics& metrics) {
  JsonValue out = JsonValue::Object();
  for (const Metric& m : metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Number(m.value));
    entry.Set("unit", JsonValue::Str(m.unit));
    out.Set(m.name, std::move(entry));
  }
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>] [--git-sha <sha>]\n");
    return 2;
  }
  const int nproc = Nproc();
  auto workload = MakeWorkload(args.workload);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  PinEnvironment(workload.ValueOrDie(), nproc);

  Context ctx;
  ctx.workload = workload.MoveValueUnsafe();
  ctx.seed = args.seed;
  ctx.scale = bento::sim::CostScale();
  ctx.nproc = nproc;
  ctx.rng.seed(args.seed);
  const std::string dir = args.work_dir + "/" + ctx.workload.name;
  ctx.data_dir = dir + "/data";
  ctx.probe_dir = dir + "/probe";
  std::filesystem::create_directories(dir);

  // The end-to-end run sets up three times and reports the median; a timed
  // segment of a third of --seconds follows each set-up, so the samples
  // spread over the whole run rather than one stretch of host load. The
  // traced run sets up once. The first set-up checks the outputs.
  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_s;
  JsonValue check;
  std::vector<RunSample> samples;
  double timed_s = 0.0;
  int passes = 0;
  std::vector<double> peak_rss_mib;
  for (int rep = 0; rep < setups; ++rep) {
    setup_s.push_back(SetUp(&ctx, rep == 0 ? &check : nullptr));
    if (!args.trace) {
      timed_s += RunTimed(&ctx, args.seconds / setups, &samples, &passes,
                          &peak_rss_mib);
    }
  }

  SpanRecorder spans;
  Outcome outcome =
      args.trace ? MeasureLayers(&ctx, args.seconds, &spans)
                 : EndToEnd(ctx, samples, timed_s, passes, peak_rss_mib,
                            setup_s);

  const std::string tag = ctx.workload.name + "-seed" +
                          std::to_string(args.seed) + "-trace" +
                          (args.trace ? "1" : "0");
  JsonValue context = JsonValue::Object();
  context.Set("workload", JsonValue::Str(ctx.workload.name));
  context.Set("why", JsonValue::Str(ctx.workload.why));
  context.Set("seed", JsonValue::Int(static_cast<int64_t>(args.seed)));
  context.Set("seconds", JsonValue::Number(args.seconds));
  context.Set("trace", JsonValue::Bool(args.trace));
  context.Set("scale", JsonValue::Number(ctx.scale));
  context.Set("nproc", JsonValue::Int(nproc));
  context.Set("pool_threads", JsonValue::Int(nproc));
  context.Set("pipeline_workers", JsonValue::Int(ctx.workload.pipeline_workers));
  context.Set("process_threads_at_end", JsonValue::Int(ProcStatus("Threads:")));
  context.Set("cpu_model", JsonValue::Str(CpuModel()));
  context.Set("build_type", JsonValue::Str(PERFBENCH_BUILD_TYPE));
  context.Set("cxx_flags", JsonValue::Str(PERFBENCH_CXX_FLAGS));
  context.Set("compiler", JsonValue::Str(PERFBENCH_COMPILER));
  context.Set("git_sha", JsonValue::Str(args.git_sha));
  context.Set("bento_env", BentoEnvironment());
  context.Set("client", JsonValue::Str("closed loop, one client, shuffled "
                                       "round-robin over cells"));

  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(ctx.outputs_correct));
  result.Set("attempted", JsonValue::Int(outcome.attempted));
  result.Set("failed", JsonValue::Int(outcome.failed));
  result.Set("metrics", MetricsJson(outcome.metrics));

  JsonValue full = JsonValue::Object();
  full.Set("context", std::move(context));
  full.Set("check", std::move(check));
  full.Set("details", std::move(outcome.details));
  full.Set("result", result);
  const std::string result_path = args.work_dir + "/result-" + tag + ".json";
  std::ofstream(result_path) << full.Dump(2) << "\n";
  if (args.trace) {
    std::ofstream(args.work_dir + "/spans-" + tag + ".json")
        << spans.ToJson().Dump() << "\n";
  }
  std::printf("workload %s, seed %llu, %d CPUs; full result in %s\n",
              ctx.workload.name.c_str(),
              static_cast<unsigned long long>(args.seed), nproc,
              result_path.c_str());
  for (const JsonValue& ex : full.Get("check").Get("excluded").items()) {
    std::printf("excluded %s: %s (%s)\n", ex.GetString("cell").c_str(),
                ex.GetString("reason").c_str(), ex.GetString("status").c_str());
  }
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
