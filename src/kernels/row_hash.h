#ifndef BENTO_KERNELS_ROW_HASH_H_
#define BENTO_KERNELS_ROW_HASH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/common.h"
#include "sim/parallel.h"

namespace bento::kern {

/// \brief 64-bit hash of every row over `columns` (all columns when empty).
/// Nulls hash to a fixed tag so null == null for grouping/deduplication
/// (the dataframe-library convention, unlike SQL joins). Wider runs fan out
/// over sim::ParallelFor in disjoint row ranges; the hashes are identical
/// for every worker count and in both execution modes.
Result<std::vector<uint64_t>> HashRows(
    const TablePtr& table, const std::vector<std::string>& columns,
    const sim::ParallelOptions& options = sim::kOneWorker);

/// \brief Equality of row `i` in `left` and row `j` in `right` over
/// pre-resolved column index pairs. Used to resolve hash collisions.
class RowEquality {
 public:
  /// `left_cols[k]` pairs with `right_cols[k]`; the column types must match.
  static Result<RowEquality> Make(const TablePtr& left,
                                  const std::vector<std::string>& left_cols,
                                  const TablePtr& right,
                                  const std::vector<std::string>& right_cols);

  bool Equal(int64_t i, int64_t j) const;

 private:
  RowEquality() = default;
  std::vector<ArrayPtr> left_;
  std::vector<ArrayPtr> right_;
  /// Per pair: both categorical sharing one dictionary object, enabling the
  /// integer-code equality fast path.
  std::vector<bool> same_dict_;
};

}  // namespace bento::kern

#endif  // BENTO_KERNELS_ROW_HASH_H_
