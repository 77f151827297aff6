#ifndef BENTO_KERNELS_JOIN_H_
#define BENTO_KERNELS_JOIN_H_

#include <string>
#include <vector>

#include "kernels/common.h"
#include "sim/parallel.h"

namespace bento::kern {

struct JoinOptions {
  JoinType type = JoinType::kInner;
  /// Suffix applied to right-side columns whose names collide with the left.
  std::string right_suffix = "_r";
};

/// \brief Single-key hash join (build on right, probe from left).
///
/// Output: all left columns followed by the right columns except the right
/// key. Left join emits nulls for unmatched left rows; when one left row
/// matches k right rows it is replicated k times (Pandas `merge` semantics).
/// Wider runs hash in parallel, build the index radix-partitioned and probe
/// morsels of left rows through sim::ParallelFor; probes emit per morsel in
/// left-row order and morsels concatenate in range order, so the output is
/// identical for every worker count. One worker (the default) builds one
/// partition and probes straight into the output pair lists.
Result<TablePtr> HashJoin(const TablePtr& left, const TablePtr& right,
                          const std::string& left_key,
                          const std::string& right_key,
                          const JoinOptions& options = {},
                          const sim::ParallelOptions& parallel = sim::kOneWorker);

}  // namespace bento::kern

#endif  // BENTO_KERNELS_JOIN_H_
