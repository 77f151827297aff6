#ifndef BENTO_KERNELS_GROUPBY_H_
#define BENTO_KERNELS_GROUPBY_H_

#include <string>
#include <vector>

#include "kernels/common.h"
#include "sim/parallel.h"

namespace bento::kern {

/// \brief The value of cell `i` as a double. String and categorical inputs
/// (only kCount accepts them) are never read: a valid cell counts as 0.0,
/// which feeds exactly the non-null count kCount reports.
inline double NumericCell(const Array& a, int64_t i) {
  switch (a.type()) {
    case TypeId::kFloat64:
      return a.float64_data()[i];
    case TypeId::kBool:
      return a.bool_data()[i] != 0 ? 1.0 : 0.0;
    case TypeId::kString:
    case TypeId::kCategorical:
      return 0.0;
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      return static_cast<double>(a.int64_data()[i]);
  }
  return 0.0;
}

/// \brief Accumulator for one (group, aggregation) pair. Tracks the moment
/// sums plus min/max/count so every AggKind can be finalized from one
/// struct; `rows` counts all rows routed to the group (kCount semantics
/// track non-null inputs through `count` instead).
///
/// Public so the group-by's partition merge and its property tests can
/// compose partial states directly.
struct AggState {
  double sum = 0.0;
  double sum_sq = 0.0;
  double min = 0.0;
  double max = 0.0;
  int64_t count = 0;  // non-null inputs seen
  int64_t rows = 0;   // all rows seen (for kCount)

  void Add(double v) {
    if (count == 0) {
      min = v;
      max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    sum += v;
    sum_sq += v * v;
    ++count;
  }

  /// \brief Folds `other` into this state, where `other` accumulated rows
  /// that all come after this state's rows. min/max/count/rows compose
  /// exactly; sum and sum_sq compose by addition, which is bit-identical to
  /// serial accumulation whenever the operands are exactly representable
  /// (integer-valued inputs) and within 1 ulp per merge otherwise — the
  /// production group-by only merges states of disjoint key partitions
  /// (exactly one contributor per group), so its output never depends on
  /// this rounding.
  void Merge(const AggState& other) {
    if (other.count > 0) {
      if (count == 0) {
        min = other.min;
        max = other.max;
      } else {
        if (other.min < min) min = other.min;
        if (other.max > max) max = other.max;
      }
    }
    sum += other.sum;
    sum_sq += other.sum_sq;
    count += other.count;
    rows += other.rows;
  }

  /// \brief Finalized value for `kind`; sets *is_null for empty groups
  /// (kStd additionally needs count >= 2).
  double Result(AggKind kind, bool* is_null) const;
};

/// \brief Hash group-by: groups `table` on `keys` and computes `aggs`.
///
/// Output schema: the key columns (one representative row per group, in
/// first-seen order) followed by one column per AggSpec. kCount outputs
/// int64; other aggregations output float64 and ignore nulls (Pandas
/// semantics: a group whose inputs are all null aggregates to null).
///
/// Morsel-driven: rows are radix-partitioned on the top key-hash bits
/// (disjoint keys per partition), every partition aggregates into its own
/// FlatGrouper + flat AggState table over sim::ParallelFor, and a
/// single-threaded merge restores dense first-seen group ids. No partition
/// tables are materialized. Per-group accumulation follows global row
/// order and groups are emitted in global first-seen order, so the output
/// is row-for-row identical for any worker count and in both execution
/// modes. One worker (the default) aggregates a single partition.
Result<TablePtr> GroupBy(const TablePtr& table,
                         const std::vector<std::string>& keys,
                         const std::vector<AggSpec>& aggs,
                         const sim::ParallelOptions& options = sim::kOneWorker);

/// \brief Default output name for an aggregation ("<col>_<agg>").
std::string DefaultAggName(const AggSpec& spec);

}  // namespace bento::kern

#endif  // BENTO_KERNELS_GROUPBY_H_
