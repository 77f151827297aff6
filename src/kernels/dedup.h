#ifndef BENTO_KERNELS_DEDUP_H_
#define BENTO_KERNELS_DEDUP_H_

#include <string>
#include <vector>

#include "kernels/common.h"
#include "sim/parallel.h"

namespace bento::kern {

/// \brief `drop_duplicates`: keeps the first occurrence of each distinct row
/// over `subset` columns (all columns when empty). Order-preserving.
///
/// Rows radix-partition on the top key-hash bits, each partition records
/// its first sightings in a private FlatGrouper (scanning in global row
/// order), and the ascending per-partition keep lists merge back into one
/// ascending list, so rows kept and their order are the same for every
/// worker count. One worker (the default) scans a single partition. The
/// surviving rows materialize through the sized gather.
Result<TablePtr> DropDuplicates(
    const TablePtr& table, const std::vector<std::string>& subset = {},
    const sim::ParallelOptions& options = sim::kOneWorker);

}  // namespace bento::kern

#endif  // BENTO_KERNELS_DEDUP_H_
