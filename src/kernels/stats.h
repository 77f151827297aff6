#ifndef BENTO_KERNELS_STATS_H_
#define BENTO_KERNELS_STATS_H_

#include <vector>

#include "kernels/common.h"
#include "sim/parallel.h"

namespace bento::kern {

/// \brief Single aggregate of one column (nulls and NaN skipped).
/// Returns a null scalar for empty/all-null inputs (count returns 0).
Result<Scalar> Aggregate(const ArrayPtr& values, AggKind kind);

/// \brief q-th quantile (0 <= q <= 1) of a numeric column by linear
/// interpolation over the sorted non-null values (the NumPy default used by
/// the outlier-locating preparator).
Result<double> Quantile(const ArrayPtr& values, double q);

/// \brief Single-pass histogram quantile: min/max scan + 2048-bin counting
/// pass, interpolated within the hit bin. O(n) time, O(1) extra memory —
/// the streaming approximation the optimized engines use where the Pandas
/// model pays a copy + full sort. Error bounded by one bin width.
Result<double> QuantileApprox(const ArrayPtr& values, double q);

/// \brief `describe()`: one row per numeric column with
/// count/mean/std/min/25%/50%/75%/max. `approx_quantiles` switches the
/// percentile rows to the streaming histogram estimate. Per-column
/// statistics are independent sim::ParallelFor tasks — the multithreading
/// that makes Modin the paper's fastest engine at `describe` on wide
/// tables; one worker (the default) computes them in column order.
Result<TablePtr> Describe(const TablePtr& table, bool approx_quantiles = false,
                          const sim::ParallelOptions& options = sim::kOneWorker);

}  // namespace bento::kern

#endif  // BENTO_KERNELS_STATS_H_
