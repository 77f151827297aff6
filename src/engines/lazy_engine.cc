#include "engines/lazy_engine.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>

#include "engines/streaming_ops.h"
#include "kernels/encode.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "kernels/join.h"
#include "kernels/null_ops.h"
#include "plan/logical_plan.h"

namespace bento::eng {

using frame::ActionResult;
using frame::ExecPolicy;
using frame::Op;
using frame::OpKind;

int64_t ScaledBatchRows(int64_t full_scale_rows, int64_t min_rows) {
  // BENTO_CHUNK_ROWS pins the batch size outright (read per call, so tests
  // can sweep chunk sizes — including degenerate ones below the usual
  // minimum — without rebuilding engines).
  if (const char* env = std::getenv("BENTO_CHUNK_ROWS")) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<int64_t>(v);
  }
  const double scaled = static_cast<double>(full_scale_rows) * sim::CostScale();
  const int64_t rows = static_cast<int64_t>(scaled);
  return rows < min_rows ? min_rows : rows;
}

bool IsStreamable(const Op& op) {
  switch (op.kind) {
    case OpKind::kQuery:
    case OpKind::kCast:
    case OpKind::kDropColumns:
    case OpKind::kRename:
    case OpKind::kApplyExpr:
    case OpKind::kToDatetime:
    case OpKind::kDropNa:
    case OpKind::kStrLower:
    case OpKind::kRound:
    case OpKind::kReplace:
    case OpKind::kApplyRow:
      return true;
    case OpKind::kFillNa:
      return !op.fill_with_mean;  // global mean needs a full pass
    case OpKind::kFusedColumn:
      // A fused chain streams only if every component step does (a chain
      // holding catcodes needs the global dictionary pass).
      for (const Op& step : op.fused) {
        if (!IsStreamable(step)) return false;
      }
      return true;
    default:
      return false;
  }
}

namespace {

/// Stable lineage signature for common-subplan elimination: equal strings
/// must imply value-identical Collect() results. Opaque frames (non-lazy,
/// row_fn anywhere in the lineage, already-fused plans) return nullopt.
std::optional<std::string> LazySubplanSignature(
    const std::shared_ptr<frame::DataFrame>& df) {
  auto* lazy = dynamic_cast<LazyFrame*>(df.get());
  if (lazy == nullptr) return std::nullopt;
  std::string sig;
  const LazySource& src = lazy->source();
  switch (src.kind) {
    case LazySource::Kind::kTable: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "tbl:%p",
                    static_cast<const void*>(src.table.get()));
      sig += buf;
      break;
    }
    case LazySource::Kind::kCsv:
      sig += "csv:" + src.path;
      for (const std::string& d : src.csv_options.drop_columns) {
        sig += "!" + d;
      }
      break;
    case LazySource::Kind::kBcf:
      sig += "bcf:" + src.path;
      break;
  }
  for (const Op& op : lazy->plan()) {
    switch (op.kind) {
      case OpKind::kApplyRow:
      case OpKind::kFusedColumn:
        return std::nullopt;  // row_fn is opaque; fused args aren't rendered
      case OpKind::kMerge: {
        auto inner = LazySubplanSignature(op.other);
        if (!inner.has_value()) return std::nullopt;
        sig += "|merge(" + *inner + ";" + op.left_key + "=" + op.right_key +
               ";" + (op.join_type == kern::JoinType::kInner ? "i" : "l") + ")";
        break;
      }
      default:
        sig += "|" + plan::OpSummary(op);
        // The display string collapses scalar kinds (Int(0) and Double(0)
        // both render "0"); tag them so the signature doesn't.
        if (op.kind == OpKind::kFillNa || op.kind == OpKind::kReplace) {
          sig += "#" + std::to_string(static_cast<int>(op.scalar_a.kind())) +
                 "," + std::to_string(static_cast<int>(op.scalar_b.kind()));
        }
    }
  }
  return sig;
}

/// Background ingest: a file-backed stream pulls chunks ahead of compute on
/// a dedicated producer thread whenever the pipeline asks for readahead (a
/// CSV source only cuts text there; the stage's workers parse it).
std::unique_ptr<ChunkStream> WithPrefetch(std::unique_ptr<ChunkStream> s,
                                          const PipelineOptions& pipe) {
  if (pipe.prefetch_depth > 0) {
    s = std::make_unique<PrefetchChunkStream>(std::move(s),
                                              pipe.prefetch_depth);
  }
  return s;
}

}  // namespace

plan::OptimizerPolicy LazyEngineBase::PlanPolicy() const {
  plan::OptimizerPolicy policy;
  policy.predicate_pushdown = EnablePredicatePushdown();
  policy.projection_pushdown = EnableProjectionPushdown();
  policy.filter_reorder = policy.predicate_pushdown;
  return policy;
}

std::vector<Op> LazyEngineBase::Optimize(std::vector<Op> ops) const {
  if (!optimizer_enabled_) return ops;
  plan::LogicalPlan lp;
  lp.ops = std::move(ops);
  plan::PlanContext ctx;
  ctx.subplan_signature = LazySubplanSignature;
  const plan::RuleDriver driver(PlanPolicy());
  const bool explain = std::getenv("BENTO_EXPLAIN") != nullptr;
  std::string before;
  if (explain) before = plan::Explain(lp.ops);
  lp = driver.Run(std::move(lp), ctx);
  if (explain) {
    std::fprintf(stderr,
                 "== %s: plan before ==\n%s== %s: plan after ==\n%s",
                 info().id.c_str(), before.c_str(), info().id.c_str(),
                 plan::Explain(lp.ops).c_str());
  }
  return std::move(lp.ops);
}

Result<std::unique_ptr<ChunkStream>> LazyEngineBase::OpenStream(
    const LazySource& source, const ScanSpec& scan,
    const PipelineOptions& pipe) const {
  switch (source.kind) {
    case LazySource::Kind::kTable: {
      col::TablePtr table = source.table;
      if (!scan.drop_columns.empty()) {
        // Same semantics as the drop op this replaces, KeyError included.
        BENTO_ASSIGN_OR_RETURN(table, table->DropColumns(scan.drop_columns));
      }
      return std::unique_ptr<ChunkStream>(
          std::make_unique<TableChunkStream>(table, ChunkRows()));
    }
    case LazySource::Kind::kCsv: {
      io::CsvReadOptions options = source.csv_options;
      options.chunk_rows = ChunkRows();
      options.drop_columns.insert(options.drop_columns.end(),
                                  scan.drop_columns.begin(),
                                  scan.drop_columns.end());
      BENTO_ASSIGN_OR_RETURN(auto stream,
                             CsvChunkStream::Open(source.path, options));
      return WithPrefetch(std::move(stream), pipe);
    }
    case LazySource::Kind::kBcf: {
      std::vector<std::string> keep;
      if (!scan.drop_columns.empty()) {
        BENTO_ASSIGN_OR_RETURN(auto reader, io::BcfReader::Open(source.path));
        std::set<std::string> dropped(scan.drop_columns.begin(),
                                      scan.drop_columns.end());
        for (const std::string& name : scan.drop_columns) {
          if (reader->schema()->IndexOf(name) < 0) {
            return Status::KeyError("no column named '", name, "'");
          }
        }
        for (const col::Field& f : reader->schema()->fields()) {
          if (dropped.count(f.name) == 0) keep.push_back(f.name);
        }
        if (keep.empty()) {
          // Every column dropped: an empty keep-list means "all" to the
          // reader, so emit the degenerate zero-width frame directly.
          BENTO_ASSIGN_OR_RETURN(
              auto empty, col::Table::MakeEmpty(std::make_shared<col::Schema>(
                              std::vector<col::Field>{})));
          return std::unique_ptr<ChunkStream>(
              std::make_unique<TableChunkStream>(std::move(empty),
                                                 ChunkRows()));
        }
      }
      io::BcfReadOptions ropts;
      ropts.use_mmap = MapsBcfSource();
      BENTO_ASSIGN_OR_RETURN(
          auto stream, BcfChunkStream::Open(source.path, std::move(keep),
                                            scan.predicates, ropts));
      return WithPrefetch(std::move(stream), pipe);
    }
  }
  return Status::Invalid("bad source");
}

namespace {

/// Rough byte size of a source (file size for file-backed sources).
uint64_t EstimateSourceBytes(const LazySource& source) {
  switch (source.kind) {
    case LazySource::Kind::kTable:
      return source.table != nullptr ? source.table->ByteSize() : 0;
    case LazySource::Kind::kCsv:
    case LazySource::Kind::kBcf: {
      std::FILE* f = std::fopen(source.path.c_str(), "rb");
      if (f == nullptr) return 0;
      std::fseek(f, 0, SEEK_END);
      long size = std::ftell(f);
      std::fclose(f);
      return size > 0 ? static_cast<uint64_t>(size) : 0;
    }
  }
  return 0;
}

/// Spark-like spill policy: go out-of-core only under memory pressure
/// (several working copies would not fit the machine budget); otherwise the
/// in-memory operators are faster.
bool MemoryTight(const LazySource& source) {
  sim::Session* session = sim::Session::Current();
  if (session == nullptr || session->host_pool()->budget() == 0) return false;
  const uint64_t budget = session->host_pool()->budget();
  // Conservative: transforms can widen frames well past the source size.
  return EstimateSourceBytes(source) * 5 > budget;
}

/// Owns a spill file produced mid-plan and removes it when done.
struct TempSpill {
  std::string path;
  ~TempSpill() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

/// Kernel policy for work running ON pipeline workers. With several workers
/// each one owns a whole chunk, so the per-kernel morsel fan-out is switched
/// off — chunk-level parallelism replaces it; nesting both would
/// oversubscribe the machine. Kernels invoked from the consumer thread
/// (breaker merges, whole-table tail ops, action folds) keep the full policy.
ExecPolicy WorkerPolicy(ExecPolicy policy, const PipelineOptions& pipe) {
  if (pipe.parallel()) policy.parallel = false;
  return policy;
}

/// The streamable run ops[0, n) as one pure per-chunk stage map. A
/// breaker's residual map (two-pass encode, probe-side join), when carried,
/// runs first; a breaker's chunk map (group-by partials, dedup hashes), when
/// given, runs last and receives the chunk's `seq`. Either way that work
/// rides the run's pipeline workers.
ParallelPipelineDriver::MapFn RunMap(const Op* ops, size_t n,
                                     const ExecPolicy* policy,
                                     ChunkMapFn carried,
                                     ParallelPipelineDriver::MapFn breaker) {
  return [ops, n, policy, carried = std::move(carried),
          breaker = std::move(breaker)](
             col::TablePtr chunk, int64_t seq) -> Result<col::TablePtr> {
    static obs::Counter* chunks =
        obs::MetricsRegistry::Global().counter("lazy.stream_chunks");
    chunks->Increment();
    static obs::Counter* rows =
        obs::MetricsRegistry::Global().counter("lazy.stream_rows");
    rows->Add(static_cast<uint64_t>(chunk->num_rows()));
    if (carried) {
      BENTO_ASSIGN_OR_RETURN(chunk, carried(std::move(chunk)));
    }
    for (size_t k = 0; k < n; ++k) {
      BENTO_ASSIGN_OR_RETURN(chunk,
                             frame::ExecTransform(chunk, ops[k], *policy));
    }
    if (breaker) return breaker(std::move(chunk), seq);
    return chunk;
  };
}

/// The one place a run becomes a stream: a ParallelPipelineDriver stage
/// over `input`. At one worker the driver runs claim + map inline on the
/// calling thread, so the serial streaming loop is this stage's degenerate
/// case rather than a separate code path.
std::unique_ptr<ParallelPipelineDriver> TransformStage(
    ChunkStream* input, ParallelPipelineDriver::MapFn map,
    const PipelineOptions& pipe) {
  return std::make_unique<ParallelPipelineDriver>(input, std::move(map), pipe);
}

}  // namespace

Result<col::TablePtr> LazyEngineBase::Execute(
    const LazySource& source, const std::vector<Op>& plan) const {
  BENTO_TRACE_SPAN_DYN(kEngine, info().id + ".execute");
  return RunPlan(source, plan, nullptr);
}

Result<col::TablePtr> LazyEngineBase::RunPlan(const LazySource& source,
                                              const std::vector<Op>& plan,
                                              const StageFold& sink) const {
  if (PlanOverheadSeconds() > 0) sim::ChargePenalty(PlanOverheadSeconds());
  std::vector<Op> ops = Optimize(plan);
  const ExecPolicy policy = ExecutionPolicy();

  // Morsel-driven pipeline shape for this execution: one inline worker
  // unless the engine runs chunk-parallel kernels, then N real or modeled
  // workers. Every streamable run below is one stage of it either way.
  const PipelineOptions pipe = ResolvePipelineOptions(policy);
  const ExecPolicy worker_policy = WorkerPolicy(policy, pipe);

  // Bind the plan's leading ops into the physical scan: a leading drop
  // becomes a column-skipping read (the scan never materializes those
  // columns), and a leading filter over a BCF source contributes zone-map
  // predicates that prune whole row groups. The filter itself stays in the
  // plan — statistics only prune, the residual query still decides rows.
  ScanSpec scan;
  size_t start = 0;
  if (optimizer_enabled_) {
    const plan::OptimizerPolicy flags = PlanPolicy();
    if (flags.scan_pushdown && flags.projection_pushdown && !ops.empty() &&
        ops[0].kind == OpKind::kDropColumns) {
      scan.drop_columns = ops[0].columns;
      start = 1;
      static obs::Counter* bound =
          obs::MetricsRegistry::Global().counter("plan.rewrite.scan_projection");
      bound->Increment();
    }
    if (flags.scan_pushdown && flags.predicate_pushdown &&
        source.kind == LazySource::Kind::kBcf && start < ops.size() &&
        ops[start].kind == OpKind::kQuery) {
      scan.predicates = plan::ExtractScanPredicates(ops[start].text);
      if (!scan.predicates.empty()) {
        static obs::Counter* bound = obs::MetricsRegistry::Global().counter(
            "plan.rewrite.scan_predicates");
        bound->Increment();
      }
    }
  }

  // Nothing to do: chaining from a materialized frame with an empty plan
  // (common in per-op modes) must not re-chunk and re-concat the table —
  // that would double its footprint for no work.
  if (sink == nullptr && ops.empty() &&
      source.kind == LazySource::Kind::kTable && source.table != nullptr) {
    return source.table;
  }

  BENTO_ASSIGN_OR_RETURN(auto stream, OpenStream(source, scan, pipe));

  const bool stream_breakers = StreamsBreakers() && MemoryTight(source);

  // Under memory pressure a streaming engine materializes results
  // file-backed: anything bigger than a slice of the remaining budget
  // spills, compacts, and comes back as zero-copy mmap views that charge
  // nothing while resident (the Vaex memory-mapped frame / Spark on-disk
  // stage-output model).
  auto drain = [&](ChunkStream* s) -> Result<col::TablePtr> {
    sim::Session* session = sim::Session::Current();
    const uint64_t headroom = session != nullptr
                                  ? session->host_pool()->HeadroomBytes()
                                  : UINT64_MAX;
    if (!stream_breakers || headroom == UINT64_MAX) return DrainStream(s);
    // The pipeline's worker budget also governs the materializer's
    // compaction pass, so the 1-vs-N worker A/B covers the whole drain.
    MaterializeOptions mat;
    mat.compact_workers = pipe.workers;
    mat.parallel_options = policy.parallel_options;
    return MaterializeStreamMapped(s, headroom / 4, mat);
  };

  // Streaming loop: breakers either stream (bounded memory) and hand the
  // pipeline a new stream, or materialize and hand it a table stream.
  col::TablePtr current;          // set when a breaker must materialize
  col::TablePtr stage_table;      // keep-alive for TableChunkStream sources
  std::vector<std::shared_ptr<TempSpill>> spills;
  // A breaker's residual per-chunk map (two-pass encode, probe-side join),
  // carried into the next stage's map instead of wrapping the stream.
  ChunkMapFn pending_map;
  size_t i = start;

  // Continues the plan from a breaker's in-memory output.
  auto resume_from_table = [&](col::TablePtr table) {
    stage_table = std::move(table);
    stream = std::make_unique<TableChunkStream>(stage_table, ChunkRows());
  };
  // Continues the plan from a spilled BCF run; `map` (if any) heads the
  // next stage.
  auto resume_from_file = [&](const std::string& path,
                              ChunkMapFn map) -> Status {
    BENTO_ASSIGN_OR_RETURN(auto next, BcfChunkStream::Open(path));
    stream = WithPrefetch(std::move(next), pipe);
    pending_map = std::move(map);
    return Status::OK();
  };

  while (current == nullptr) {
    // Maximal streamable run [i, j).
    size_t j = i;
    while (j < ops.size() && IsStreamable(ops[j])) ++j;

    // The final run's stage goes to the sink. A breaker with a per-chunk
    // half names its chunk map, which the run's map takes on (transforms
    // and the breaker's map ride one stage), and its serial fold, which
    // consumes that stage in stream order.
    ParallelPipelineDriver::MapFn breaker_map;
    StageFold fold;
    if (j >= ops.size()) {
      fold = sink ? sink : StageFold(drain);
    } else if (stream_breakers) {
      const Op& op = ops[j];
      switch (op.kind) {
        case OpKind::kGroupByAgg:
          breaker_map = GroupByChunkMap(op.columns, op.aggs);
          fold = [&op](ChunkStream* s) {
            return StreamingGroupBy(s, op.columns, op.aggs);
          };
          break;
        case OpKind::kPivot:
          breaker_map = PivotChunkMap(op);
          fold = [&op](ChunkStream* s) { return StreamingPivot(s, op); };
          break;
        case OpKind::kDropDuplicates:
          breaker_map = DedupChunkMap(op.columns);
          fold = StreamingDedup;
          break;
        default:
          break;
      }
    }

    auto stage = TransformStage(
        stream.get(),
        RunMap(ops.data() + i, j - i, &worker_policy,
               std::move(pending_map), std::move(breaker_map)),
        pipe);
    pending_map = nullptr;
    // Joins the stage's workers — nothing may still hold the old stream
    // when `stream` is replaced — and charges its per-chunk modeled
    // overhead in one step from this (consumer) thread: session clocks are
    // consumer-thread state, which pipeline workers cannot touch.
    auto close_stage = [&]() {
      const int64_t chunks = stage->chunks_claimed();
      stage.reset();
      if (PerChunkOverheadSeconds() > 0 && chunks > 0) {
        sim::ChargePenalty(PerChunkOverheadSeconds() *
                           static_cast<double>(chunks));
      }
    };
    if (fold) {
      BENTO_ASSIGN_OR_RETURN(auto folded, fold(stage.get()));
      close_stage();
      if (j >= ops.size()) return folded;
      resume_from_table(std::move(folded));
      i = j + 1;
      continue;
    }
    const Op& breaker = ops[j];
    i = j + 1;
    // Closes a stage whose output was written to a temp BCF run; the file
    // lives until the plan finishes.
    auto close_to_file =
        [&](Result<std::string> written) -> Result<std::string> {
      BENTO_ASSIGN_OR_RETURN(std::string path, std::move(written));
      close_stage();
      auto spill = std::make_shared<TempSpill>();
      spill->path = path;
      spills.push_back(std::move(spill));
      stage_table.reset();
      return path;
    };

    if (stream_breakers) {
      switch (breaker.kind) {
        case OpKind::kSortValues: {
          // Sorted output spills to a shuffle-style temp file and the plan
          // keeps streaming from disk: memory stays O(run + chunk).
          BENTO_ASSIGN_OR_RETURN(
              std::string path,
              close_to_file(ExternalSortToFile(
                  stage.get(), breaker.sort_keys, policy,
                  std::max<int64_t>(ChunkRows() * 4, 64 * 1024))));
          BENTO_RETURN_NOT_OK(resume_from_file(path, nullptr));
          continue;
        }
        case OpKind::kGetDummies:
        case OpKind::kCatCodes:
        case OpKind::kFillNa: {
          // Two-pass streaming: spill the transformed stream, derive the
          // global state (categories / dictionary / mean) from a first pass
          // over the spill, then keep streaming with a per-chunk map.
          if (breaker.kind == OpKind::kFillNa && !breaker.fill_with_mean) {
            break;  // plain fillna is already streamable
          }
          BENTO_ASSIGN_OR_RETURN(std::string path,
                                 close_to_file(SpillStreamToFile(stage.get())));
          BENTO_ASSIGN_OR_RETURN(auto pass1_raw, BcfChunkStream::Open(path));
          auto pass1 = WithPrefetch(std::move(pass1_raw), pipe);
          ChunkMapFn map_fn;
          if (breaker.kind == OpKind::kGetDummies) {
            BENTO_ASSIGN_OR_RETURN(
                auto categories,
                StreamDistinctValues(pass1.get(), breaker.column));
            map_fn = [column = breaker.column,
                      categories = std::move(categories)](col::TablePtr chunk) {
              return kern::GetDummiesWithCategories(chunk, column, categories);
            };
          } else if (breaker.kind == OpKind::kCatCodes) {
            BENTO_ASSIGN_OR_RETURN(
                auto dict, StreamDistinctValues(pass1.get(), breaker.column));
            map_fn = [column = breaker.column, dict = std::move(dict)](
                         col::TablePtr chunk) -> Result<col::TablePtr> {
              BENTO_ASSIGN_OR_RETURN(auto values, chunk->GetColumn(column));
              BENTO_ASSIGN_OR_RETURN(auto codes,
                                     kern::CatCodesWithDict(values, dict));
              return chunk->SetColumn(column, codes);
            };
          } else {  // fillna with mean
            BENTO_ASSIGN_OR_RETURN(double mean,
                                   StreamColumnMean(pass1.get(), breaker.column));
            map_fn = [column = breaker.column,
                      mean](col::TablePtr chunk) -> Result<col::TablePtr> {
              BENTO_ASSIGN_OR_RETURN(auto values, chunk->GetColumn(column));
              col::Scalar fill = values->type() == col::TypeId::kInt64
                                     ? col::Scalar::Int(static_cast<int64_t>(mean))
                                     : col::Scalar::Double(mean);
              BENTO_ASSIGN_OR_RETURN(auto filled, kern::FillNull(values, fill));
              return chunk->SetColumn(column, filled);
            };
          }
          pass1.reset();  // first pass done before the second one opens
          BENTO_RETURN_NOT_OK(resume_from_file(path, std::move(map_fn)));
          continue;
        }
        case OpKind::kMerge: {
          // Probe-streaming join: materialize the (small) build side once,
          // join each probe chunk independently.
          if (breaker.other == nullptr) {
            return Status::Invalid("merge without right side");
          }
          BENTO_ASSIGN_OR_RETURN(auto right, breaker.other->Collect());
          kern::JoinOptions jopts;
          jopts.type = breaker.join_type;
          // A build side that would eat a large slice of the remaining
          // budget (its hash table costs a few multiples of the table)
          // takes the grace path: both sides hash-partition to spill and
          // join partition-by-partition.
          sim::Session* session = sim::Session::Current();
          const uint64_t headroom =
              session != nullptr ? session->host_pool()->HeadroomBytes()
                                 : UINT64_MAX;
          if (headroom != UINT64_MAX && right->ByteSize() * 3 > headroom) {
            BENTO_ASSIGN_OR_RETURN(
                auto joined, GraceHashJoin(stage.get(), right, breaker.left_key,
                                           breaker.right_key, jopts));
            close_stage();
            resume_from_table(std::move(joined));
            continue;
          }
          // Drain into a temp spill so the probe side never materializes;
          // the probe joins then ride the next stage's workers.
          BENTO_ASSIGN_OR_RETURN(std::string path,
                                 close_to_file(SpillStreamToFile(stage.get())));
          BENTO_RETURN_NOT_OK(resume_from_file(
              path, [right, breaker, jopts](col::TablePtr chunk) {
                return kern::HashJoin(chunk, right, breaker.left_key,
                                      breaker.right_key, jopts);
              }));
          continue;
        }
        default:
          break;  // fall through to materialize
      }
    }
    // Materialize-then-execute breaker; subsequent ops go whole-table.
    BENTO_ASSIGN_OR_RETURN(current, drain(stage.get()));
    close_stage();
    BENTO_ASSIGN_OR_RETURN(current,
                           frame::ExecTransform(current, breaker, policy));
  }

  // Whole-table execution of the remainder.
  for (; i < ops.size(); ++i) {
    BENTO_ASSIGN_OR_RETURN(current,
                           frame::ExecTransform(current, ops[i], policy));
  }
  return current;
}

Result<ActionResult> LazyEngineBase::ExecuteAction(
    const LazySource& source, const std::vector<Op>& plan,
    const Op& action) const {
  BENTO_TRACE_SPAN_DYN(kEngine, info().id + ".execute_action");
  const ExecPolicy policy = ExecutionPolicy();

  bool fully_streamable = true;
  for (const Op& op : plan) {
    if (!IsStreamable(op)) {
      fully_streamable = false;
      break;
    }
  }
  // Quantile-based actions need multi-pass streaming; only the counting
  // actions stream in one pass here. Everything else materializes.
  const bool streaming_action =
      action.kind == OpKind::kIsNa || action.kind == OpKind::kSearchPattern ||
      action.kind == OpKind::kGetColumns || action.kind == OpKind::kGetDtypes;
  if (!fully_streamable || !streaming_action) {
    BENTO_ASSIGN_OR_RETURN(auto table, Execute(source, plan));
    const double penalty = ActionPenaltySeconds(action, table);
    if (penalty > 0) sim::ChargePenalty(penalty);
    return frame::ExecAction(table, action, policy);
  }

  // The plan is one run, executed exactly as in Execute; the action fold is
  // the sink of its stage, on the calling thread in stream order.
  ActionResult result;
  bool first = true;
  auto fold = [&](ChunkStream* stage) -> Result<col::TablePtr> {
    while (true) {
      BENTO_ASSIGN_OR_RETURN(auto chunk, stage->Next());
      if (chunk == nullptr) break;
      const double penalty = ActionPenaltySeconds(action, chunk);
      if (penalty > 0) sim::ChargePenalty(penalty);
      BENTO_ASSIGN_OR_RETURN(auto partial,
                             frame::ExecAction(chunk, action, policy));
      if (first) {
        result = std::move(partial);
        first = false;
      } else if (action.kind == OpKind::kIsNa) {
        for (size_t c = 0;
             c < result.counts.size() && c < partial.counts.size(); ++c) {
          result.counts[c] += partial.counts[c];
        }
      } else if (action.kind == OpKind::kSearchPattern) {
        result.count += partial.count;
      }
      if (action.kind == OpKind::kGetColumns ||
          action.kind == OpKind::kGetDtypes) {
        break;  // schema-only actions need one chunk
      }
    }
    return col::TablePtr();  // the fold's output is `result`, not a table
  };
  BENTO_RETURN_NOT_OK(RunPlan(source, plan, fold).status());
  if (first) return Status::Invalid("action over an empty stream");
  return result;
}

LazyFrame::LazyFrame(LazySource source, std::vector<frame::Op> plan,
                     const LazyEngineBase* engine)
    : source_(std::move(source)),
      plan_(std::move(plan)),
      engine_(engine),
      // Null for stack-allocated engines: the caller owns the lifetime then.
      engine_keepalive_(engine->weak_from_this().lock()) {}

Result<frame::DataFrame::Ptr> LazyFrame::Apply(const Op& op) {
  if (engine_->lazy()) {
    // If this plan was already forced (an action or an explicit Collect
    // materialized it), chain from the cached result instead of replaying
    // the whole lineage from the source — the caching real lazy engines
    // apply at forced boundaries.
    if (cache_ != nullptr) {
      LazySource cached;
      cached.kind = LazySource::Kind::kTable;
      cached.table = cache_;
      cached.owned_resource = source_.owned_resource;
      return std::static_pointer_cast<frame::DataFrame>(
          std::make_shared<LazyFrame>(std::move(cached), std::vector<Op>{op},
                                      engine_));
    }
    std::vector<Op> next = plan_;
    next.push_back(op);
    return std::static_pointer_cast<frame::DataFrame>(
        std::make_shared<LazyFrame>(source_, std::move(next), engine_));
  }
  // Eager mode: run everything now and hold the materialized result.
  BENTO_ASSIGN_OR_RETURN(auto table, Collect());
  BENTO_ASSIGN_OR_RETURN(
      auto result, frame::ExecTransform(table, op, engine_->ExecutionPolicy()));
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = std::move(result);
  return std::static_pointer_cast<frame::DataFrame>(
      std::make_shared<LazyFrame>(std::move(source), std::vector<Op>{},
                                  engine_));
}

Result<ActionResult> LazyFrame::RunAction(const Op& op) {
  if (engine_->lazy() && cache_ == nullptr &&
      source_.kind != LazySource::Kind::kTable) {
    // Lineage semantics: actions re-stream the plan without materializing
    // the frame (and without populating the cache) — the memory behaviour
    // behind the streaming engines' small minimum configurations.
    BENTO_ASSIGN_OR_RETURN(auto result, engine_->ExecuteAction(source_, plan_, op));
    return result;
  }
  BENTO_ASSIGN_OR_RETURN(auto table, Collect());
  const double penalty = engine_->ActionPenaltySeconds(op, table);
  if (penalty > 0) sim::ChargePenalty(penalty);
  return frame::ExecAction(table, op, engine_->ExecutionPolicy());
}

Result<col::TablePtr> LazyFrame::Collect() {
  if (cache_ != nullptr) return cache_;
  if (source_.kind == LazySource::Kind::kTable && plan_.empty()) {
    cache_ = source_.table;
    return cache_;
  }
  BENTO_ASSIGN_OR_RETURN(cache_, engine_->Execute(source_, plan_));
  return cache_;
}

Result<frame::DataFrame::Ptr> LazyEngineBase::ReadCsv(
    const std::string& path, const io::CsvReadOptions& options) {
  LazySource source;
  source.kind = LazySource::Kind::kCsv;
  source.path = path;
  source.csv_options = options;
  BENTO_ASSIGN_OR_RETURN(source, PrepareSource(std::move(source)));
  auto frame =
      std::make_shared<LazyFrame>(std::move(source), std::vector<Op>{}, this);
  if (!lazy()) {
    // Eager mode ingests immediately.
    BENTO_RETURN_NOT_OK(frame->Collect().status());
  }
  return std::static_pointer_cast<frame::DataFrame>(frame);
}

Result<frame::DataFrame::Ptr> LazyEngineBase::ReadBcf(const std::string& path) {
  LazySource source;
  source.kind = LazySource::Kind::kBcf;
  source.path = path;
  BENTO_ASSIGN_OR_RETURN(source, PrepareSource(std::move(source)));
  auto frame =
      std::make_shared<LazyFrame>(std::move(source), std::vector<Op>{}, this);
  if (!lazy()) {
    BENTO_RETURN_NOT_OK(frame->Collect().status());
  }
  return std::static_pointer_cast<frame::DataFrame>(frame);
}

Status LazyEngineBase::WriteCsv(const frame::DataFrame::Ptr& frame,
                                const std::string& path) {
  BENTO_ASSIGN_OR_RETURN(auto table, frame->Collect());
  if (ExecutionPolicy().parallel) {
    return io::WriteCsvParallel(table, path, {},
                                ExecutionPolicy().parallel_options);
  }
  return io::WriteCsv(table, path);
}

Status LazyEngineBase::WriteBcf(const frame::DataFrame::Ptr& frame,
                                const std::string& path) {
  BENTO_ASSIGN_OR_RETURN(auto table, frame->Collect());
  return io::WriteBcf(table, path);
}

Result<frame::DataFrame::Ptr> LazyEngineBase::FromTable(col::TablePtr table) {
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = std::move(table);
  BENTO_ASSIGN_OR_RETURN(source, PrepareSource(std::move(source)));
  return std::static_pointer_cast<frame::DataFrame>(
      std::make_shared<LazyFrame>(std::move(source), std::vector<Op>{}, this));
}

}  // namespace bento::eng
