#include "kernels/dedup.h"

#include <algorithm>

#include "kernels/flat_index.h"
#include "kernels/row_hash.h"
#include "kernels/selection.h"

namespace bento::kern {

Result<TablePtr> DropDuplicates(const TablePtr& table,
                                const std::vector<std::string>& subset,
                                const sim::ParallelOptions& options) {
  BENTO_TRACE_SPAN(kKernel, "dedup");
  std::vector<std::string> cols = subset;
  if (cols.empty()) cols = table->schema()->names();
  const int64_t n = table->num_rows();
  BENTO_ASSIGN_OR_RETURN(auto hashes, HashRows(table, subset, options));
  BENTO_ASSIGN_OR_RETURN(auto equal, RowEquality::Make(table, cols, table, cols));

  // Scatter rows to radix partitions of the top hash bits, record first
  // sightings per partition in global row order, then merge the ascending
  // keep lists. Partitions hold disjoint keys, so the union of first
  // sightings is the same for any partition count.
  const int parts = FlatIndex::PlanPartitions(n, options);
  BENTO_ASSIGN_OR_RETURN(auto rows, RadixRows::Scatter(hashes, parts, options));

  std::vector<std::vector<int64_t>> part_keep(static_cast<size_t>(parts));
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      parts,
      [&](int64_t p) -> Status {
        BENTO_TRACE_SPAN(kKernel, "dedup.morsel.partition");
        FlatGrouper seen(n / (8 * parts) + 16);
        auto& keep = part_keep[static_cast<size_t>(p)];
        auto consume = [&, row_hash = hashes.data()](int64_t i) {
          const int64_t before = seen.num_groups();
          seen.FindOrInsert(
              row_hash[i], i,
              [&](int64_t a, int64_t b) { return equal.Equal(a, b); });
          if (seen.num_groups() != before) keep.push_back(i);  // first sighting
        };
        rows.ForEachRow(static_cast<int>(p), consume);
        return Status::OK();
      },
      options));

  // Per-partition keep lists are ascending (scan follows global row order);
  // pairwise merges restore the single ascending first-seen list.
  std::vector<int64_t> keep_rows = std::move(part_keep[0]);
  for (size_t p = 1; p < part_keep.size(); ++p) {
    const auto& keep = part_keep[p];
    std::vector<int64_t> merged(keep_rows.size() + keep.size());
    std::merge(keep_rows.begin(), keep_rows.end(), keep.begin(), keep.end(),
               merged.begin());
    keep_rows = std::move(merged);
  }
  return TakeTable(table, keep_rows, options);
}

}  // namespace bento::kern
