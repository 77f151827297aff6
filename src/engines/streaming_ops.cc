#include "engines/streaming_ops.h"

#include <sys/stat.h>

#include <cmath>
#include <functional>
#include <cstdio>
#include <limits>
#include <queue>
#include <unordered_set>

#include "columnar/builder.h"
#include "engines/spill_frames.h"
#include "kernels/apply.h"
#include "kernels/groupby.h"
#include "kernels/join.h"
#include "kernels/pivot.h"
#include "kernels/row_hash.h"
#include "kernels/selection.h"
#include "kernels/sort.h"
#include "kernels/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/spill.h"

namespace bento::eng {

using col::TablePtr;
using frame::ExecPolicy;
using kern::AggKind;
using kern::AggSpec;

namespace {

/// Decomposed partial-aggregation plan for one requested aggregation.
struct DecomposedAgg {
  AggSpec request;                // what the caller asked for
  std::vector<AggSpec> partials;  // partial columns computed per chunk
  std::vector<AggSpec> merges;    // how partial columns merge
};

std::vector<DecomposedAgg> DecomposeAggs(const std::vector<AggSpec>& aggs) {
  std::vector<DecomposedAgg> out;
  int tag = 0;
  for (const AggSpec& spec : aggs) {
    DecomposedAgg d;
    d.request = spec;
    auto add = [&](AggKind kind, const char* suffix,
                   AggKind merge_kind) {
      std::string name =
          "__p" + std::to_string(tag) + "_" + suffix;
      d.partials.push_back(AggSpec{spec.column, kind, name});
      d.merges.push_back(AggSpec{name, merge_kind, name});
    };
    switch (spec.kind) {
      case AggKind::kSum:
        add(AggKind::kSum, "sum", AggKind::kSum);
        break;
      case AggKind::kCount:
        add(AggKind::kCount, "cnt", AggKind::kSum);
        break;
      case AggKind::kMin:
        add(AggKind::kMin, "min", AggKind::kMin);
        break;
      case AggKind::kMax:
        add(AggKind::kMax, "max", AggKind::kMax);
        break;
      case AggKind::kMean:
        add(AggKind::kSum, "sum", AggKind::kSum);
        add(AggKind::kCount, "cnt", AggKind::kSum);
        break;
      case AggKind::kStd:
      case AggKind::kSumSq:
        add(AggKind::kSum, "sum", AggKind::kSum);
        add(AggKind::kCount, "cnt", AggKind::kSum);
        add(AggKind::kSumSq, "sumsq", AggKind::kSum);
        break;
    }
    ++tag;
    out.push_back(std::move(d));
  }
  return out;
}

/// Writer options of every temporary BCF run (sort output, spilled
/// streams, both passes of a mapped materialization): pages in the
/// in-memory buffer layout (PLAIN fixed-width, STRVIEW strings; DICT only
/// for categoricals), uncompressed and 8-byte aligned. A run lives for one
/// stage, so skipping the encoding trial and the DICT/DELTA codecs saves
/// more CPU than its extra bytes cost in I/O, and an mmap reader can serve
/// every page zero-copy.
io::BcfWriteOptions TempRunOptions(int64_t row_group_rows) {
  io::BcfWriteOptions wopts;
  wopts.row_group_rows = row_group_rows;
  wopts.compression = false;
  wopts.align_pages = true;
  wopts.mappable = true;
  return wopts;
}

/// Finalizes the merged decomposed columns into the requested outputs.
Result<TablePtr> FinalizeAggs(const TablePtr& merged,
                              const std::vector<std::string>& keys,
                              const std::vector<DecomposedAgg>& decomposed) {
  BENTO_ASSIGN_OR_RETURN(auto out, merged->SelectColumns(keys));
  const int64_t n = merged->num_rows();
  for (const DecomposedAgg& d : decomposed) {
    const std::string out_name = kern::DefaultAggName(d.request);
    if (d.request.kind == AggKind::kCount) {
      BENTO_ASSIGN_OR_RETURN(auto cnt, merged->GetColumn(d.partials[0].output_name));
      col::Int64Builder b;
      b.Reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        b.AppendMaybe(cnt->IsValid(i)
                          ? static_cast<int64_t>(kern::NumericCell(*cnt, i))
                          : 0,
                      cnt->IsValid(i));
      }
      BENTO_ASSIGN_OR_RETURN(auto arr, b.Finish());
      BENTO_ASSIGN_OR_RETURN(out, out->SetColumn(out_name, arr));
      continue;
    }

    col::Float64Builder b;
    b.Reserve(n);
    switch (d.request.kind) {
      case AggKind::kSum:
      case AggKind::kMin:
      case AggKind::kMax:
      case AggKind::kSumSq: {
        BENTO_ASSIGN_OR_RETURN(auto v,
                               merged->GetColumn(d.partials[0].output_name));
        // SumSq merges via three partials; its value is the third.
        if (d.request.kind == AggKind::kSumSq) {
          BENTO_ASSIGN_OR_RETURN(v, merged->GetColumn(d.partials[2].output_name));
        }
        for (int64_t i = 0; i < n; ++i) {
          b.AppendMaybe(v->IsValid(i) ? kern::NumericCell(*v, i) : 0.0,
                        v->IsValid(i));
        }
        break;
      }
      case AggKind::kMean: {
        BENTO_ASSIGN_OR_RETURN(auto sum,
                               merged->GetColumn(d.partials[0].output_name));
        BENTO_ASSIGN_OR_RETURN(auto cnt,
                               merged->GetColumn(d.partials[1].output_name));
        for (int64_t i = 0; i < n; ++i) {
          const double c = cnt->IsValid(i) ? kern::NumericCell(*cnt, i) : 0.0;
          if (c <= 0.0 || !sum->IsValid(i)) {
            b.AppendNull();
          } else {
            b.Append(kern::NumericCell(*sum, i) / c);
          }
        }
        break;
      }
      case AggKind::kStd: {
        BENTO_ASSIGN_OR_RETURN(auto sum,
                               merged->GetColumn(d.partials[0].output_name));
        BENTO_ASSIGN_OR_RETURN(auto cnt,
                               merged->GetColumn(d.partials[1].output_name));
        BENTO_ASSIGN_OR_RETURN(auto sumsq,
                               merged->GetColumn(d.partials[2].output_name));
        for (int64_t i = 0; i < n; ++i) {
          const double c = cnt->IsValid(i) ? kern::NumericCell(*cnt, i) : 0.0;
          if (c < 2.0 || !sum->IsValid(i) || !sumsq->IsValid(i)) {
            b.AppendNull();
          } else {
            const double s = kern::NumericCell(*sum, i);
            const double ss = kern::NumericCell(*sumsq, i);
            double var = (ss - s * s / c) / (c - 1.0);
            b.Append(var > 0.0 ? std::sqrt(var) : 0.0);
          }
        }
        break;
      }
      case AggKind::kCount:
        break;  // handled above
    }
    BENTO_ASSIGN_OR_RETURN(auto arr, b.Finish());
    BENTO_ASSIGN_OR_RETURN(out, out->SetColumn(out_name, arr));
  }
  return out;
}

/// Hidden column carrying each row's stream position. Aggregated with min
/// it names a group's first-seen position, which is exactly the order
/// kern::GroupBy emits groups in — so spilled partitions can be stitched
/// back into the order the in-memory path would have produced.
constexpr const char* kSeqColumn = "__seq";

/// Sequence values are (chunk_seq << 32) + row_in_chunk: strictly
/// increasing in (chunk, row) stream order for any chunking, which is all
/// the consumers need (min-per-group, stable ArgSort — only the ORDER of
/// the values matters, never their magnitudes). Unlike a global row
/// counter, a chunk can compute its values knowing nothing about earlier
/// chunks' post-filter row counts — the property that lets pipeline workers
/// attach the column concurrently yet bit-identically to the serial pass.
constexpr int kSeqChunkShift = 32;

Result<TablePtr> AttachSeqColumn(const TablePtr& chunk, int64_t chunk_seq) {
  if (chunk->num_rows() >= (int64_t{1} << kSeqChunkShift)) {
    return Status::Invalid("chunk too large for the sequence column (",
                           chunk->num_rows(), " rows)");
  }
  const int64_t base = chunk_seq << kSeqChunkShift;
  col::Int64Builder b;
  b.Reserve(chunk->num_rows());
  for (int64_t i = 0; i < chunk->num_rows(); ++i) b.Append(base + i);
  BENTO_ASSIGN_OR_RETURN(auto seq, b.Finish());
  return chunk->SetColumn(kSeqColumn, std::move(seq));
}

/// Splits `table` into `partitions` row subsets by key hash. Rows with equal
/// keys (nulls included — they hash to a fixed tag) always land in the same
/// partition, and relative row order is preserved within each.
Result<std::vector<TablePtr>> HashPartitionTable(
    const TablePtr& table, const std::vector<std::string>& keys,
    int partitions) {
  BENTO_ASSIGN_OR_RETURN(auto hashes, kern::HashRows(table, keys));
  std::vector<TablePtr> out;
  for (int p = 0; p < partitions; ++p) {
    col::BoolBuilder mask;
    mask.Reserve(table->num_rows());
    for (int64_t i = 0; i < table->num_rows(); ++i) {
      mask.Append(hashes[static_cast<size_t>(i)] %
                      static_cast<uint64_t>(partitions) ==
                  static_cast<uint64_t>(p));
    }
    BENTO_ASSIGN_OR_RETURN(auto m, mask.Finish());
    BENTO_ASSIGN_OR_RETURN(auto part, kern::FilterTable(table, m));
    out.push_back(std::move(part));
  }
  return out;
}

/// Reorders `table` ascending by the hidden sequence column and drops it.
Result<TablePtr> RestoreSeqOrder(const TablePtr& table) {
  BENTO_ASSIGN_OR_RETURN(
      auto indices, kern::ArgSort(table, {kern::SortKey{kSeqColumn, true}}));
  BENTO_ASSIGN_OR_RETURN(auto sorted, kern::TakeTable(table, indices));
  return sorted->DropColumns({kSeqColumn});
}

/// The partial specs the chunk map computes (`merge` false) or the merge
/// specs the fold applies (`merge` true), flattened over every decomposed
/// aggregation. Both end with the first-seen-order column, which rides
/// along in every mode so spill can engage mid-stream; FinalizeAggs drops
/// it (it only selects keys+outputs).
std::vector<AggSpec> FlattenSpecs(const std::vector<DecomposedAgg>& decomposed,
                                  bool merge) {
  std::vector<AggSpec> specs;
  for (const DecomposedAgg& d : decomposed) {
    const std::vector<AggSpec>& part = merge ? d.merges : d.partials;
    specs.insert(specs.end(), part.begin(), part.end());
  }
  specs.push_back(AggSpec{kSeqColumn, AggKind::kMin, kSeqColumn});
  return specs;
}

/// The pivot aggregates down to one row per (index, columns) pair.
std::vector<AggSpec> PivotAggs(const frame::Op& op) {
  return {AggSpec{op.pivot_values, op.pivot_agg, "__pivot_value"}};
}

/// Hidden per-row hash column attached by the dedup's chunk map; the fold
/// pops it and applies the first-seen filter in strict stream order, so the
/// kept rows are identical for any worker count.
constexpr const char* kHashColumn = "__dedup_hash";

}  // namespace

ParallelPipelineDriver::MapFn GroupByChunkMap(
    const std::vector<std::string>& keys, const std::vector<AggSpec>& aggs) {
  return [keys, partial_specs = FlattenSpecs(DecomposeAggs(aggs), false)](
             TablePtr chunk, int64_t seq) -> Result<TablePtr> {
    if (chunk->num_rows() == 0) return chunk;  // fold skips empty partials
    BENTO_ASSIGN_OR_RETURN(chunk, AttachSeqColumn(chunk, seq));
    BENTO_ASSIGN_OR_RETURN(auto partial,
                           kern::GroupBy(chunk, keys, partial_specs));
    // Partial count columns decode as int64 but merge through kSum
    // (float64); normalize them to float64 so compacted and fresh partials
    // share a schema.
    for (const AggSpec& spec : partial_specs) {
      if (spec.kind != AggKind::kCount) continue;
      BENTO_ASSIGN_OR_RETURN(auto column, partial->GetColumn(spec.output_name));
      if (column->type() == col::TypeId::kInt64) {
        col::Float64Builder b;
        b.Reserve(column->length());
        for (int64_t i = 0; i < column->length(); ++i) {
          b.AppendMaybe(static_cast<double>(column->int64_data()[i]),
                        column->IsValid(i));
        }
        BENTO_ASSIGN_OR_RETURN(auto as_float, b.Finish());
        BENTO_ASSIGN_OR_RETURN(partial,
                               partial->SetColumn(spec.output_name, as_float));
      }
    }
    return partial;
  };
}

Result<TablePtr> StreamingGroupBy(ChunkStream* partial_stream,
                                  const std::vector<std::string>& keys,
                                  const std::vector<AggSpec>& aggs,
                                  const StreamingGroupByOptions& options) {
  const auto decomposed = DecomposeAggs(aggs);
  const std::vector<AggSpec> merge_specs = FlattenSpecs(decomposed, true);

  int64_t spill_threshold = options.spill_threshold_bytes;
  if (spill_threshold < 0) {
    spill_threshold = std::numeric_limits<int64_t>::max();
    sim::Session* session = sim::Session::Current();
    if (session != nullptr && session->host_pool()->budget() > 0) {
      spill_threshold =
          static_cast<int64_t>(session->host_pool()->budget() / 8);
    }
  }
  const int n_partitions = std::max(options.spill_partitions, 1);

  std::unique_ptr<SpillFrameStore> store;  // non-null once spilling
  auto spill_partial = [&](const TablePtr& partial) -> Status {
    BENTO_ASSIGN_OR_RETURN(auto parts,
                           HashPartitionTable(partial, keys, n_partitions));
    for (int p = 0; p < n_partitions; ++p) {
      BENTO_RETURN_NOT_OK(store->Append(p, parts[static_cast<size_t>(p)]));
    }
    return Status::OK();
  };

  std::vector<TablePtr> partials;
  int64_t partial_bytes = 0;
  constexpr size_t kCompactEvery = 16;
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto partial, partial_stream->Next());
    if (partial == nullptr) break;
    if (partial->num_rows() == 0) continue;
    if (store != nullptr) {
      BENTO_RETURN_NOT_OK(spill_partial(partial));
      continue;
    }
    partial_bytes += static_cast<int64_t>(partial->ByteSize());
    partials.push_back(std::move(partial));
    if (partial_bytes >= spill_threshold) {
      // The group state itself no longer fits: compact what we hold, fan it
      // out to hash partitions on disk, and spill every later partial.
      static obs::Counter* spilled =
          obs::MetricsRegistry::Global().counter("groupby.spill_engaged");
      spilled->Increment();
      BENTO_ASSIGN_OR_RETURN(auto concat, col::ConcatTablesReleasing(&partials));
      BENTO_ASSIGN_OR_RETURN(auto compacted,
                             kern::GroupBy(concat, keys, merge_specs));
      concat.reset();
      BENTO_ASSIGN_OR_RETURN(store, SpillFrameStore::Create(n_partitions));
      BENTO_RETURN_NOT_OK(spill_partial(compacted));
      partial_bytes = 0;
      continue;
    }
    if (partials.size() >= kCompactEvery) {
      BENTO_ASSIGN_OR_RETURN(auto concat, col::ConcatTables(partials));
      BENTO_ASSIGN_OR_RETURN(auto compacted,
                             kern::GroupBy(concat, keys, merge_specs));
      partials.clear();
      partial_bytes = static_cast<int64_t>(compacted->ByteSize());
      partials.push_back(std::move(compacted));
    }
  }

  if (store != nullptr) {
    // Per-partition exact merge; a group's partials all share one partition
    // (hash of its key), so merging partitions independently is exact. The
    // hidden min-sequence column then restores global first-seen order.
    BENTO_TRACE_SPAN(kEngine, "groupby.spill_merge");
    std::vector<TablePtr> merged_parts;
    for (int p = 0; p < n_partitions; ++p) {
      BENTO_ASSIGN_OR_RETURN(auto chunks, store->ReadPartition(p));
      if (chunks.empty()) continue;
      BENTO_ASSIGN_OR_RETURN(auto concat, col::ConcatTablesReleasing(&chunks));
      if (concat->num_rows() == 0) continue;
      BENTO_ASSIGN_OR_RETURN(auto merged,
                             kern::GroupBy(concat, keys, merge_specs));
      merged_parts.push_back(std::move(merged));
    }
    store.reset();
    if (merged_parts.empty()) {
      return Status::Invalid("streaming group-by over an empty stream");
    }
    BENTO_ASSIGN_OR_RETURN(auto all, col::ConcatTablesReleasing(&merged_parts));
    BENTO_ASSIGN_OR_RETURN(
        auto indices, kern::ArgSort(all, {kern::SortKey{kSeqColumn, true}}));
    BENTO_ASSIGN_OR_RETURN(auto ordered, kern::TakeTable(all, indices));
    return FinalizeAggs(ordered, keys, decomposed);
  }

  if (partials.empty()) {
    return Status::Invalid("streaming group-by over an empty stream");
  }
  BENTO_ASSIGN_OR_RETURN(auto concat, col::ConcatTables(partials));
  BENTO_ASSIGN_OR_RETURN(auto merged, kern::GroupBy(concat, keys, merge_specs));
  return FinalizeAggs(merged, keys, decomposed);
}

namespace {

/// Cursor over one spilled sorted run (a SpillFrameStore partition).
struct RunCursor {
  std::unique_ptr<ChunkStream> stream;
  TablePtr chunk;
  int64_t row = 0;

  Status Advance() {
    ++row;
    if (chunk != nullptr && row < chunk->num_rows()) return Status::OK();
    row = 0;
    chunk = nullptr;
    while (true) {
      BENTO_ASSIGN_OR_RETURN(auto next, stream->Next());
      if (next == nullptr) return Status::OK();  // exhausted: chunk stays null
      if (next->num_rows() > 0) {
        chunk = std::move(next);
        return Status::OK();
      }
    }
  }

  bool exhausted() const { return chunk == nullptr; }
};

}  // namespace

namespace {

/// Shared core of the external sort: sorted runs spill to temp BCF files;
/// the k-way merge emits ordered output chunks to `sink`.
Status ExternalSortImpl(ChunkStream* input,
                        const std::vector<kern::SortKey>& keys,
                        const ExecPolicy& policy, int64_t run_rows,
                        const std::function<Status(TablePtr)>& sink) {
  // Phase 1: build sorted runs, spilling each as one partition of a shared
  // SpillFrameStore. Runs are bounded both by rows and by bytes (one run
  // plus its sorted copy must fit comfortably inside the machine budget).
  uint64_t run_budget_bytes = 64ULL << 20;
  if (sim::Session::Current() != nullptr &&
      sim::Session::Current()->host_pool()->budget() > 0) {
    run_budget_bytes = std::max<uint64_t>(
        sim::Session::Current()->host_pool()->budget() / 8, 128 << 10);
  }
  // The store outlives the cursors below (declaration order matters).
  BENTO_ASSIGN_OR_RETURN(auto store, SpillFrameStore::Create(0));
  std::vector<std::unique_ptr<RunCursor>> runs;
  std::vector<TablePtr> pending;
  int64_t pending_rows = 0;
  uint64_t pending_bytes = 0;
  col::SchemaPtr schema;

  auto flush_run = [&]() -> Status {
    if (pending.empty()) return Status::OK();
    BENTO_ASSIGN_OR_RETURN(auto run_table, col::ConcatTablesReleasing(&pending));
    pending_rows = 0;
    pending_bytes = 0;
    BENTO_ASSIGN_OR_RETURN(
        auto sorted, kern::SortTable(run_table, keys, policy.KernelOptions()));
    run_table.reset();
    const int partition = store->AddPartition();
    // During the k-way merge every run keeps one frame resident, so frames
    // are bounded in BYTES (a small fraction of the run budget), not rows —
    // N cursors together must stay well under a single run's footprint.
    const uint64_t row_bytes = std::max<uint64_t>(
        1, sorted->ByteSize() / static_cast<uint64_t>(
                                    std::max<int64_t>(sorted->num_rows(), 1)));
    const int64_t run_frame_rows = std::clamp<int64_t>(
        static_cast<int64_t>(run_budget_bytes / 64 / row_bytes), 64, 8192);
    for (int64_t begin = 0; begin < sorted->num_rows();
         begin += run_frame_rows) {
      const int64_t n = std::min(run_frame_rows, sorted->num_rows() - begin);
      BENTO_ASSIGN_OR_RETURN(auto frame, sorted->Slice(begin, n));
      BENTO_RETURN_NOT_OK(store->Append(partition, frame));
    }
    sorted.reset();
    auto cursor = std::make_unique<RunCursor>();
    BENTO_ASSIGN_OR_RETURN(cursor->stream, store->OpenPartition(partition));
    cursor->row = -1;
    BENTO_RETURN_NOT_OK(cursor->Advance());
    runs.push_back(std::move(cursor));
    return Status::OK();
  };

  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, input->Next());
    if (chunk == nullptr) break;
    if (schema == nullptr) schema = chunk->schema();
    if (chunk->num_rows() == 0) continue;
    pending_rows += chunk->num_rows();
    pending_bytes += OwnedChunkBytes(chunk);
    pending.push_back(std::move(chunk));
    if (pending_rows >= run_rows || pending_bytes >= run_budget_bytes) {
      BENTO_RETURN_NOT_OK(flush_run());
    }
  }
  BENTO_RETURN_NOT_OK(flush_run());

  if (runs.empty()) {
    if (schema == nullptr) {
      return Status::Invalid("external sort over an empty stream");
    }
    BENTO_ASSIGN_OR_RETURN(auto empty, col::Table::MakeEmpty(schema));
    return sink(empty);
  }
  if (runs.size() == 1) {
    // Single run: stream it back whole.
    while (!runs[0]->exhausted()) {
      TablePtr chunk = runs[0]->chunk;
      runs[0]->chunk = nullptr;
      runs[0]->row = -1;
      BENTO_RETURN_NOT_OK(sink(std::move(chunk)));
      BENTO_RETURN_NOT_OK(runs[0]->Advance());
    }
    return Status::OK();
  }

  // Phase 2: cursor-based k-way merge, assembling output in chunks.
  auto cmp_runs = [&](size_t a, size_t b) -> Result<int> {
    return kern::CompareTableRows(runs[a]->chunk, runs[a]->row, runs[b]->chunk,
                                  runs[b]->row, keys);
  };

  std::vector<std::unique_ptr<kern::ScalarColumnAssembler>> assemblers;
  const col::SchemaPtr out_schema = runs[0]->chunk->schema();
  auto reset_assemblers = [&]() {
    assemblers.clear();
    for (const col::Field& f : out_schema->fields()) {
      // Categorical round-trips as string through the assembler.
      col::TypeId t = f.type == col::TypeId::kCategorical
                          ? col::TypeId::kString
                          : f.type;
      assemblers.push_back(std::make_unique<kern::ScalarColumnAssembler>(t));
    }
  };
  reset_assemblers();
  int64_t assembled = 0;
  constexpr int64_t kOutChunk = 8192;  // bounds merge-phase staging

  auto flush_output = [&]() -> Status {
    if (assembled == 0) return Status::OK();
    std::vector<col::Field> fields;
    std::vector<col::ArrayPtr> columns;
    for (int c = 0; c < out_schema->num_fields(); ++c) {
      BENTO_ASSIGN_OR_RETURN(auto arr, assemblers[static_cast<size_t>(c)]->Finish());
      col::Field f = out_schema->field(c);
      if (f.type == col::TypeId::kCategorical) f.type = col::TypeId::kString;
      fields.push_back(f);
      columns.push_back(std::move(arr));
    }
    BENTO_ASSIGN_OR_RETURN(
        auto chunk, col::Table::Make(
                        std::make_shared<col::Schema>(std::move(fields)),
                        std::move(columns)));
    BENTO_RETURN_NOT_OK(sink(std::move(chunk)));
    reset_assemblers();
    assembled = 0;
    return Status::OK();
  };

  while (true) {
    // Pick the smallest head among non-exhausted runs.
    int best = -1;
    for (size_t r = 0; r < runs.size(); ++r) {
      if (runs[r]->exhausted()) continue;
      if (best < 0) {
        best = static_cast<int>(r);
        continue;
      }
      BENTO_ASSIGN_OR_RETURN(int c, cmp_runs(r, static_cast<size_t>(best)));
      if (c < 0) best = static_cast<int>(r);
    }
    if (best < 0) break;
    RunCursor& cursor = *runs[static_cast<size_t>(best)];
    for (int c = 0; c < out_schema->num_fields(); ++c) {
      BENTO_RETURN_NOT_OK(assemblers[static_cast<size_t>(c)]->Append(
          cursor.chunk->column(c)->GetScalar(cursor.row)));
    }
    ++assembled;
    if (assembled >= kOutChunk) BENTO_RETURN_NOT_OK(flush_output());
    BENTO_RETURN_NOT_OK(cursor.Advance());
  }
  return flush_output();
}

}  // namespace

Result<TablePtr> ExternalSort(ChunkStream* input,
                              const std::vector<kern::SortKey>& keys,
                              const ExecPolicy& policy, int64_t run_rows) {
  std::vector<TablePtr> output_chunks;
  BENTO_RETURN_NOT_OK(ExternalSortImpl(input, keys, policy, run_rows,
                                       [&](TablePtr chunk) {
                                         output_chunks.push_back(
                                             std::move(chunk));
                                         return Status::OK();
                                       }));
  if (output_chunks.empty()) {
    return Status::Invalid("external sort produced no output");
  }
  return col::ConcatTablesReleasing(&output_chunks);
}

Result<std::string> ExternalSortToFile(ChunkStream* input,
                                       const std::vector<kern::SortKey>& keys,
                                       const ExecPolicy& policy,
                                       int64_t run_rows) {
  const std::string path = sim::TempFilePath("bento_run", ".bcf");
  BENTO_ASSIGN_OR_RETURN(auto writer,
                         io::BcfWriter::Open(path, TempRunOptions(64 * 1024)));
  Status st = ExternalSortImpl(input, keys, policy, run_rows,
                               [&](TablePtr chunk) {
                                 return writer->Append(chunk);
                               });
  if (!st.ok()) {
    std::remove(path.c_str());
    return st;
  }
  BENTO_RETURN_NOT_OK(writer->Finish());
  return path;
}

ParallelPipelineDriver::MapFn DedupChunkMap(
    const std::vector<std::string>& subset) {
  return [subset](TablePtr chunk, int64_t) -> Result<TablePtr> {
    if (chunk->num_rows() == 0) return chunk;
    BENTO_ASSIGN_OR_RETURN(auto hashes, kern::HashRows(chunk, subset));
    col::Int64Builder b;
    b.Reserve(chunk->num_rows());
    for (int64_t i = 0; i < chunk->num_rows(); ++i) {
      b.Append(static_cast<int64_t>(hashes[static_cast<size_t>(i)]));
    }
    BENTO_ASSIGN_OR_RETURN(auto column, b.Finish());
    return chunk->SetColumn(kHashColumn, std::move(column));
  };
}

Result<TablePtr> StreamingDedup(ChunkStream* hashed) {
  std::unordered_set<uint64_t> seen;
  std::vector<TablePtr> kept;
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, hashed->Next());
    if (chunk == nullptr) break;
    if (chunk->num_rows() == 0) continue;
    BENTO_ASSIGN_OR_RETURN(auto hash_column, chunk->GetColumn(kHashColumn));
    const int64_t* hashes = hash_column->int64_data();
    BENTO_ASSIGN_OR_RETURN(chunk, chunk->DropColumns({kHashColumn}));
    col::BoolBuilder keep;
    keep.Reserve(chunk->num_rows());
    for (int64_t i = 0; i < chunk->num_rows(); ++i) {
      keep.Append(seen.insert(static_cast<uint64_t>(hashes[i])).second);
    }
    BENTO_ASSIGN_OR_RETURN(auto mask, keep.Finish());
    BENTO_ASSIGN_OR_RETURN(auto filtered, kern::FilterTable(chunk, mask));
    if (filtered->num_rows() > 0) kept.push_back(std::move(filtered));
  }
  if (kept.empty()) {
    return Status::Invalid("streaming dedup over an empty stream");
  }
  return col::ConcatTablesReleasing(&kept);
}

ParallelPipelineDriver::MapFn PivotChunkMap(const frame::Op& op) {
  return GroupByChunkMap({op.pivot_index, op.pivot_columns}, PivotAggs(op));
}

Result<TablePtr> StreamingPivot(ChunkStream* partials, const frame::Op& op,
                                const StreamingGroupByOptions& options) {
  // Aggregate down to one row per (index, columns) pair, then pivot the
  // small result in memory.
  BENTO_ASSIGN_OR_RETURN(
      auto grouped,
      StreamingGroupBy(partials, {op.pivot_index, op.pivot_columns},
                       PivotAggs(op), options));
  // Cell groups are unique, so any decomposable agg of the single value
  // reproduces it; the output column names match the kernel's convention.
  return kern::PivotTable(grouped, op.pivot_index, op.pivot_columns,
                          "__pivot_value",
                          op.pivot_agg == kern::AggKind::kCount
                              ? kern::AggKind::kSum
                              : kern::AggKind::kMean);
}

Result<TablePtr> GraceHashJoin(ChunkStream* probe, const TablePtr& build,
                               const std::string& left_key,
                               const std::string& right_key,
                               const kern::JoinOptions& options,
                               int partitions) {
  BENTO_TRACE_SPAN(kEngine, "join.grace");
  static obs::Counter* grace_joins =
      obs::MetricsRegistry::Global().counter("join.grace_runs");
  grace_joins->Increment();
  const int P = std::max(partitions, 1);
  // One store, two halves: build partitions in [0, P), probe in [P, 2P).
  BENTO_ASSIGN_OR_RETURN(auto store, SpillFrameStore::Create(2 * P));

  {
    // Partitioning the build side lets each per-partition hash table hold
    // ~1/P of it; the full build table never needs a hash table at once.
    BENTO_ASSIGN_OR_RETURN(auto parts,
                           HashPartitionTable(build, {right_key}, P));
    for (int p = 0; p < P; ++p) {
      BENTO_RETURN_NOT_OK(store->Append(p, parts[static_cast<size_t>(p)]));
    }
  }

  int64_t chunk_seq = 0;
  TablePtr typed_empty_probe;  // zero-row probe chunk, for schema fallbacks
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, probe->Next());
    if (chunk == nullptr) break;
    BENTO_ASSIGN_OR_RETURN(auto with_seq, AttachSeqColumn(chunk, chunk_seq++));
    if (typed_empty_probe == nullptr) {
      BENTO_ASSIGN_OR_RETURN(typed_empty_probe, with_seq->Slice(0, 0));
    }
    if (chunk->num_rows() == 0) continue;
    BENTO_ASSIGN_OR_RETURN(auto parts,
                           HashPartitionTable(with_seq, {left_key}, P));
    for (int p = 0; p < P; ++p) {
      BENTO_RETURN_NOT_OK(
          store->Append(P + p, parts[static_cast<size_t>(p)]));
    }
  }
  if (typed_empty_probe == nullptr) {
    return Status::Invalid("grace join over an empty stream");
  }

  std::vector<TablePtr> joined;
  for (int p = 0; p < P; ++p) {
    BENTO_ASSIGN_OR_RETURN(auto build_chunks, store->ReadPartition(p));
    TablePtr build_part;
    if (build_chunks.empty()) {
      BENTO_ASSIGN_OR_RETURN(build_part, build->Slice(0, 0));
    } else {
      BENTO_ASSIGN_OR_RETURN(build_part,
                             col::ConcatTablesReleasing(&build_chunks));
    }
    // Probe frames join one at a time, so per-partition memory stays at
    // O(build/P + frame + matches).
    BENTO_ASSIGN_OR_RETURN(auto probe_stream, store->OpenPartition(P + p));
    while (true) {
      BENTO_ASSIGN_OR_RETURN(auto frame, probe_stream->Next());
      if (frame == nullptr) break;
      if (frame->num_rows() == 0) continue;
      BENTO_ASSIGN_OR_RETURN(auto out, kern::HashJoin(frame, build_part,
                                                      left_key, right_key,
                                                      options));
      if (out->num_rows() > 0) joined.push_back(std::move(out));
    }
  }
  store.reset();

  if (joined.empty()) {
    // Nothing matched (or the probe was all-empty): produce the join's
    // output schema exactly as the one-shot HashJoin would.
    BENTO_ASSIGN_OR_RETURN(
        auto out, kern::HashJoin(typed_empty_probe, build, left_key,
                                 right_key, options));
    return out->DropColumns({kSeqColumn});
  }
  BENTO_ASSIGN_OR_RETURN(auto all, col::ConcatTablesReleasing(&joined));
  // ArgSort is stable, so a probe row's multiple matches (equal __seq) keep
  // their build-order — the exact row order HashJoin(probe, build) emits.
  return RestoreSeqOrder(all);
}

Result<TablePtr> DrainStream(ChunkStream* input) {
  std::vector<TablePtr> chunks;
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, input->Next());
    if (chunk == nullptr) break;
    chunks.push_back(std::move(chunk));
  }
  if (chunks.empty()) return Status::Invalid("drained an empty stream");
  // Releasing concat keeps the peak at one copy plus one column.
  return col::ConcatTablesReleasing(&chunks);
}

Result<TablePtr> MaterializeStreamMapped(ChunkStream* input,
                                         uint64_t inline_limit_bytes,
                                         const MaterializeOptions& options) {
  BENTO_TRACE_SPAN(kIo, "materialize.mapped");
  static obs::Counter* mapped_frames =
      obs::MetricsRegistry::Global().counter("lazy.mapped_materializations");

  // Buffer small results in memory: the file round-trip only pays for
  // frames that would otherwise occupy a big slice of the budget.
  std::vector<TablePtr> pending;
  uint64_t pending_bytes = 0;
  bool exhausted = false;
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, input->Next());
    if (chunk == nullptr) {
      exhausted = true;
      break;
    }
    pending_bytes += OwnedChunkBytes(chunk);
    pending.push_back(std::move(chunk));
    if (pending_bytes > inline_limit_bytes) break;
  }
  if (exhausted) {
    if (pending.empty()) return Status::Invalid("drained an empty stream");
    return col::ConcatTablesReleasing(&pending);
  }

  // Pass 1: spill the stream chunk-at-a-time, one row group per chunk.
  const std::string spill_path = sim::TempFilePath("bento_run", ".bcf");
  auto spill = [&]() -> Status {
    // Row-group size 0: one group per appended chunk.
    BENTO_ASSIGN_OR_RETURN(
        auto writer, io::BcfWriter::Open(spill_path, TempRunOptions(0)));
    for (TablePtr& buffered : pending) {
      BENTO_RETURN_NOT_OK(writer->Append(buffered));
      buffered.reset();
    }
    pending.clear();
    while (true) {
      BENTO_ASSIGN_OR_RETURN(auto chunk, input->Next());
      if (chunk == nullptr) break;
      BENTO_RETURN_NOT_OK(writer->Append(chunk));
    }
    return writer->Finish();
  };
  Status st = spill();
  if (!st.ok()) {
    std::remove(spill_path.c_str());
    return st;
  }

  // Pass 2: compact into ONE mappable row group. Column-at-a-time, so the
  // peak is a single column (plus its chunk parts), never the frame.
  const std::string mapped_path = sim::TempFilePath("bento_run", ".bcf");
  auto compact = [&]() -> Status {
    BENTO_TRACE_SPAN(kIo, "materialize.compact");
    BENTO_ASSIGN_OR_RETURN(auto src, io::BcfReader::Open(spill_path));
    BENTO_ASSIGN_OR_RETURN(
        auto dst, io::BcfWriter::Open(mapped_path, TempRunOptions(0)));
    const col::SchemaPtr schema = src->schema();
    const int num_cols = schema->num_fields();

    // One column's worth of reassembly (all row groups of one column,
    // concatenated). Each window slot has its own reader — a shared reader
    // would race on its cursor.
    auto produce_column = [&](io::BcfReader* reader,
                              int c) -> Result<col::ArrayPtr> {
      std::vector<col::TablePtr> parts;
      parts.reserve(static_cast<size_t>(reader->num_row_groups()));
      for (int g = 0; g < reader->num_row_groups(); ++g) {
        BENTO_ASSIGN_OR_RETURN(
            auto part, reader->ReadRowGroup(g, {schema->field(c).name}));
        parts.push_back(std::move(part));
      }
      BENTO_ASSIGN_OR_RETURN(auto column, col::ConcatTablesReleasing(&parts));
      return column->column(0);
    };

    // Windowed compaction: a bounded window of columns is reassembled
    // concurrently ahead of the serial, schema-ordered writer. Peak memory
    // is the window, never the frame; the window shrinks to whatever the
    // pool's remaining headroom can hold (per-column estimate from the
    // spill's own byte count, doubled for the concat's transient parts). A
    // window of one is the serial column-at-a-time pass.
    int window = std::max(1, std::min(options.compact_workers, num_cols));
    if (window > 1) {
      sim::Session* session = sim::Session::Current();
      const uint64_t headroom =
          session != nullptr ? session->host_pool()->HeadroomBytes()
                             : UINT64_MAX;
      if (headroom != UINT64_MAX) {
        struct stat file_info;
        const uint64_t spill_bytes =
            ::stat(spill_path.c_str(), &file_info) == 0
                ? static_cast<uint64_t>(file_info.st_size)
                : pending_bytes;
        const uint64_t per_column =
            2 * (spill_bytes / static_cast<uint64_t>(num_cols) + 1);
        const uint64_t fit = (headroom / 2) / per_column;
        window = static_cast<int>(std::min<uint64_t>(
            static_cast<uint64_t>(window), std::max<uint64_t>(1, fit)));
      }
    }

    // One long-lived reader per window slot: task k of every refill uses
    // slot k exclusively, so no cursor is shared, and the (metadata-heavy)
    // open cost is paid once per slot, not once per column. Slot 0 reuses
    // the reader already open.
    const int64_t num_rows = src->num_rows();
    std::vector<std::unique_ptr<io::BcfReader>> readers(
        static_cast<size_t>(window));
    readers[0] = std::move(src);
    for (size_t k = 1; k < readers.size(); ++k) {
      BENTO_ASSIGN_OR_RETURN(readers[k], io::BcfReader::Open(spill_path));
    }
    std::vector<col::ArrayPtr> produced;
    int produced_base = 0;
    sim::ParallelOptions popts = options.parallel_options;
    popts.max_workers = window;
    BENTO_RETURN_NOT_OK(dst->AppendColumnGroup(
        schema, num_rows, [&](int c) -> Result<col::ArrayPtr> {
          if (c >= produced_base + static_cast<int>(produced.size())) {
            // The writer consumed the window; refill it in parallel.
            produced_base = c;
            const int count = std::min(window, num_cols - c);
            produced.assign(static_cast<size_t>(count), nullptr);
            BENTO_RETURN_NOT_OK(sim::ParallelFor(
                count,
                [&](int64_t k) -> Status {
                  BENTO_ASSIGN_OR_RETURN(
                      produced[static_cast<size_t>(k)],
                      produce_column(readers[static_cast<size_t>(k)].get(),
                                     c + static_cast<int>(k)));
                  return Status::OK();
                },
                popts));
          }
          return std::move(produced[static_cast<size_t>(c - produced_base)]);
        }));
    return dst->Finish();
  };
  st = compact();
  std::remove(spill_path.c_str());
  if (!st.ok()) {
    std::remove(mapped_path.c_str());
    return st;
  }

  // Pass 3: map the compacted frame back. Unlink immediately — the mapping
  // (or the reader's open descriptor under BENTO_BCF_MMAP=off) keeps the
  // bytes reachable until the last view is released.
  io::BcfReadOptions ropts;
  ropts.use_mmap = true;
  auto reader = io::BcfReader::Open(mapped_path, ropts);
  std::remove(mapped_path.c_str());
  if (!reader.ok()) return reader.status();
  mapped_frames->Increment();
  return reader.ValueOrDie()->ReadRowGroup(0);
}


Result<std::string> SpillStreamToFile(ChunkStream* input) {
  BENTO_TRACE_SPAN(kIo, "spill.stream");
  const std::string path = sim::TempFilePath("bento_run", ".bcf");
  // Pass-2 readers stream small batches.
  BENTO_ASSIGN_OR_RETURN(auto writer,
                         io::BcfWriter::Open(path, TempRunOptions(4096)));
  bool any = false;
  Status st;
  while (true) {
    auto chunk = input->Next();
    if (!chunk.ok()) {
      st = chunk.status();
      break;
    }
    if (chunk.ValueOrDie() == nullptr) break;
    st = writer->Append(chunk.ValueOrDie());
    if (!st.ok()) break;
    any = true;
  }
  if (st.ok() && !any) st = Status::Invalid("spilled an empty stream");
  if (st.ok()) st = writer->Finish();
  if (!st.ok()) {
    std::remove(path.c_str());
    return st;
  }
  return path;
}

Result<std::vector<std::string>> StreamDistinctValues(
    ChunkStream* input, const std::string& column) {
  BENTO_TRACE_SPAN(kEngine, "twopass.distinct");
  std::vector<std::string> values;
  std::unordered_set<std::string> seen;
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, input->Next());
    if (chunk == nullptr) break;
    BENTO_ASSIGN_OR_RETURN(auto c, chunk->GetColumn(column));
    for (int64_t i = 0; i < c->length(); ++i) {
      if (c->IsNull(i)) continue;
      std::string v = c->ValueToString(i);
      if (seen.insert(v).second) values.push_back(std::move(v));
    }
  }
  return values;
}

Result<double> StreamColumnMean(ChunkStream* input, const std::string& column) {
  double sum = 0.0;
  int64_t count = 0;
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, input->Next());
    if (chunk == nullptr) break;
    BENTO_ASSIGN_OR_RETURN(auto c, chunk->GetColumn(column));
    BENTO_ASSIGN_OR_RETURN(auto s, kern::Aggregate(c, AggKind::kSum));
    BENTO_ASSIGN_OR_RETURN(auto n, kern::Aggregate(c, AggKind::kCount));
    if (!s.is_null()) sum += s.double_value();
    count += n.int_value();
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

}  // namespace bento::eng
