#include "kernels/join.h"

#include <algorithm>

#include "kernels/flat_index.h"
#include "kernels/row_hash.h"
#include "kernels/selection.h"
#include "obs/metrics.h"

namespace bento::kern {

namespace {

/// Materializes the matched pairs: all left columns, then the right
/// columns minus the right key (suffixed on a name collision). The gathers
/// run as sized-output morsel copies, so no builder grows.
Result<TablePtr> AssembleJoin(const TablePtr& left, const TablePtr& right,
                              const std::string& right_key,
                              const std::vector<int64_t>& left_rows,
                              const std::vector<int64_t>& right_rows,
                              const std::string& right_suffix,
                              const sim::ParallelOptions& parallel) {
  BENTO_ASSIGN_OR_RETURN(auto left_out, TakeTable(left, left_rows, parallel));
  BENTO_ASSIGN_OR_RETURN(auto right_sel, right->DropColumns({right_key}));
  BENTO_ASSIGN_OR_RETURN(auto right_out,
                         TakeTable(right_sel, right_rows, parallel));
  std::vector<col::Field> fields = left_out->schema()->fields();
  std::vector<ArrayPtr> columns = left_out->columns();
  for (int c = 0; c < right_out->num_columns(); ++c) {
    col::Field f = right_out->schema()->field(c);
    if (left_out->schema()->Contains(f.name)) f.name += right_suffix;
    fields.push_back(std::move(f));
    columns.push_back(right_out->column(c));
  }
  return Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                     std::move(columns));
}

/// Probes rows [begin, end) of the left table against the build index and
/// appends match pairs (first-seen order: left row major, right chain minor).
void ProbeRange(const FlatIndex& index, const std::vector<uint64_t>& left_hashes,
                const Array& left_key_col, const RowEquality& equal,
                JoinType type, int64_t begin, int64_t end,
                std::vector<int64_t>* left_rows,
                std::vector<int64_t>* right_rows) {
  for (int64_t i = begin; i < end; ++i) {
    bool matched = false;
    if (!left_key_col.IsNull(i)) {
      int64_t j = index.Find(left_hashes[static_cast<size_t>(i)],
                             [&](int64_t row) { return equal.Equal(i, row); });
      for (; j != FlatIndex::kNone; j = index.Next(j)) {
        left_rows->push_back(i);
        right_rows->push_back(j);
        matched = true;
      }
    }
    if (!matched && type == JoinType::kLeft) {
      left_rows->push_back(i);
      right_rows->push_back(-1);
    }
  }
}

}  // namespace

Result<TablePtr> HashJoin(const TablePtr& left, const TablePtr& right,
                          const std::string& left_key,
                          const std::string& right_key,
                          const JoinOptions& options,
                          const sim::ParallelOptions& parallel) {
  BENTO_TRACE_SPAN(kKernel, "join.hash");
  BENTO_ASSIGN_OR_RETURN(auto right_hashes,
                         HashRows(right, {right_key}, parallel));
  BENTO_ASSIGN_OR_RETURN(auto left_hashes, HashRows(left, {left_key}, parallel));
  BENTO_ASSIGN_OR_RETURN(
      auto equal, RowEquality::Make(left, {left_key}, right, {right_key}));
  BENTO_ASSIGN_OR_RETURN(
      auto build_equal, RowEquality::Make(right, {right_key}, right, {right_key}));
  BENTO_ASSIGN_OR_RETURN(auto right_key_col, right->GetColumn(right_key));
  BENTO_ASSIGN_OR_RETURN(auto left_key_col, left->GetColumn(left_key));

  FlatIndex index;
  BENTO_RETURN_NOT_OK(index.BuildPartitioned(
      right_hashes, [&](int64_t j) { return !right_key_col->IsNull(j); },
      [&](int64_t a, int64_t b) { return build_equal.Equal(a, b); }, parallel));

  // Morsel-sized probe chunks: task count follows the data, not n/workers,
  // so the pool can steal across skewed match densities.
  const int64_t probe_rows = left->num_rows();
  const int workers = sim::ResolveWorkers(parallel);
  auto ranges = sim::MorselRanges(probe_rows, workers);
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  if (workers <= 1 || ranges.size() <= 1) {
    // One worker probes straight into the output pair lists (reserved for
    // ~1 match per probe row, like the per-chunk lists below).
    left_rows.reserve(static_cast<size_t>(probe_rows));
    right_rows.reserve(static_cast<size_t>(probe_rows));
    ProbeRange(index, left_hashes, *left_key_col, equal, options.type, 0,
               probe_rows, &left_rows, &right_rows);
  } else {
    std::vector<std::vector<int64_t>> chunk_left(ranges.size());
    std::vector<std::vector<int64_t>> chunk_right(ranges.size());
    BENTO_RETURN_NOT_OK(sim::ParallelFor(
        static_cast<int64_t>(ranges.size()),
        [&](int64_t r) {
          auto [b, e] = ranges[static_cast<size_t>(r)];
          // ~1 match per probe row is the common shape; reserving that much
          // keeps the emit loop from reallocating in most chunks.
          chunk_left[static_cast<size_t>(r)].reserve(static_cast<size_t>(e - b));
          chunk_right[static_cast<size_t>(r)].reserve(static_cast<size_t>(e - b));
          ProbeRange(index, left_hashes, *left_key_col, equal, options.type, b,
                     e, &chunk_left[static_cast<size_t>(r)],
                     &chunk_right[static_cast<size_t>(r)]);
          return Status::OK();
        },
        parallel));

    // Prefix-sum the per-chunk match counts, then copy every chunk into its
    // disjoint slice of the exact-size pair vectors in parallel. Chunk order
    // = left-row order, so the output order does not depend on the split.
    std::vector<size_t> offsets(ranges.size() + 1, 0);
    for (size_t r = 0; r < ranges.size(); ++r) {
      offsets[r + 1] = offsets[r] + chunk_left[r].size();
    }
    left_rows.resize(offsets.back());
    right_rows.resize(offsets.back());
    BENTO_RETURN_NOT_OK(sim::ParallelFor(
        static_cast<int64_t>(ranges.size()),
        [&](int64_t r) {
          const auto& cl = chunk_left[static_cast<size_t>(r)];
          const auto& cr = chunk_right[static_cast<size_t>(r)];
          const auto off =
              static_cast<std::ptrdiff_t>(offsets[static_cast<size_t>(r)]);
          std::copy(cl.begin(), cl.end(), left_rows.begin() + off);
          std::copy(cr.begin(), cr.end(), right_rows.begin() + off);
          return Status::OK();
        },
        parallel));
  }
  static obs::Counter* c_pairs =
      obs::MetricsRegistry::Global().counter("join.probe.pairs");
  c_pairs->Add(static_cast<uint64_t>(left_rows.size()));
  return AssembleJoin(left, right, right_key, left_rows, right_rows,
                      options.right_suffix, parallel);
}

}  // namespace bento::kern
