#ifndef BENTO_KERNELS_SORT_H_
#define BENTO_KERNELS_SORT_H_

#include <cstdint>
#include <vector>

#include "kernels/common.h"
#include "sim/parallel.h"

namespace bento::kern {

/// \brief Stable multi-key argsort; nulls order last regardless of
/// direction (the Pandas default).
///
/// Chunked: per-chunk stable sorts run through sim::ParallelFor, then the
/// sorted runs merge through MergeSortedRuns — every level of the merge
/// tree fans out too, so no serial O(n log k) heap remains. In real mode
/// the run count is capped at the physical thread count (extra runs only
/// add merge levels). One worker (the default) sorts a single run. The
/// order is identical for every worker count.
Result<std::vector<int64_t>> ArgSort(
    const TablePtr& table, const std::vector<SortKey>& keys,
    const sim::ParallelOptions& options = sim::kOneWorker);

/// \brief Stable merge of pre-sorted index runs over `table`'s sort keys.
/// Requirements: each run is sorted under `keys`, and run i's row ids all
/// precede run i+1's (the chunked-argsort shape) — ties then resolve to the
/// lower run, which makes the result identical to one stable sort.
/// Adjacent runs merge pairwise per level; each pair is cut into balanced
/// segments by binary-searched splitters (split A evenly, align B with
/// lower_bound) and all segments of a level merge in one ParallelFor.
/// Exposed for the sort ablation benchmarks.
Result<std::vector<int64_t>> MergeSortedRuns(
    const TablePtr& table, const std::vector<SortKey>& keys,
    std::vector<std::vector<int64_t>> runs,
    const sim::ParallelOptions& options = sim::kOneWorker);

/// \brief Materializes the sorted table (argsort + take).
Result<TablePtr> SortTable(const TablePtr& table,
                           const std::vector<SortKey>& keys,
                           const sim::ParallelOptions& options = sim::kOneWorker);

/// \brief Three-way comparison of row `i` of `a` against row `j` of `b`
/// under `keys` (schemas must agree on the key columns). Nulls sort last.
/// Used by external merge sort.
Result<int> CompareTableRows(const TablePtr& a, int64_t i, const TablePtr& b,
                             int64_t j, const std::vector<SortKey>& keys);

}  // namespace bento::kern

#endif  // BENTO_KERNELS_SORT_H_
