#ifndef BENTO_KERNELS_SELECTION_H_
#define BENTO_KERNELS_SELECTION_H_

#include <cstdint>
#include <vector>

#include "kernels/common.h"
#include "sim/parallel.h"

namespace bento::kern {

/// \brief Keeps rows where `mask` is true (null mask slots drop the row).
/// `mask` must be a kBool array of the same length.
Result<ArrayPtr> Filter(const ArrayPtr& values, const ArrayPtr& mask);
Result<TablePtr> FilterTable(const TablePtr& table, const ArrayPtr& mask);

/// \brief Gathers rows at `indices`; an index of -1 emits a null row
/// (used by left joins). Sized two-pass gather: output buffers are
/// allocated to their exact final size up front (prefix-summed byte totals
/// for strings) and morsel tasks copy disjoint output ranges — no
/// growth-amortized builder appends. An out-of-bounds index fails with the
/// first offending index. At one worker (the default) the morsels run in
/// order on the calling thread; in kSimulated mode wider runs earn makespan
/// credit like any other ParallelFor. The output is identical for every
/// worker count.
Result<ArrayPtr> Take(const ArrayPtr& values,
                      const std::vector<int64_t>& indices,
                      const sim::ParallelOptions& options = sim::kOneWorker);
Result<TablePtr> TakeTable(const TablePtr& table,
                           const std::vector<int64_t>& indices,
                           const sim::ParallelOptions& options = sim::kOneWorker);

}  // namespace bento::kern

#endif  // BENTO_KERNELS_SELECTION_H_
