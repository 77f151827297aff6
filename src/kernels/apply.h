#ifndef BENTO_KERNELS_APPLY_H_
#define BENTO_KERNELS_APPLY_H_

#include <functional>

#include "columnar/builder.h"
#include "kernels/common.h"
#include "sim/parallel.h"

namespace bento::kern {

/// \brief User function for row-wise apply: produces one scalar per row.
using RowFn = std::function<Result<Scalar>(const Table&, int64_t row)>;

/// \brief Row-wise `apply`: evaluates `fn` for every row and assembles a
/// column of `out_type`. This is the slowest preparator family in the paper
/// (Pandas goes out of memory on Patrol with it) because every row crosses
/// the scalar boundary — we reproduce that by materializing a boxed Scalar
/// per row. Wider runs evaluate row chunks through sim::ParallelFor (the
/// multithreaded engines) and concatenate them in order; one worker (the
/// default) evaluates one chunk.
Result<ArrayPtr> ApplyRows(const TablePtr& table, const RowFn& fn,
                           TypeId out_type,
                           const sim::ParallelOptions& options = sim::kOneWorker);

/// \brief Appends scalars produced row-by-row into a typed column.
/// Exposed for engines that stream chunks themselves.
class ScalarColumnAssembler {
 public:
  explicit ScalarColumnAssembler(TypeId type) : type_(type) {}

  Status Append(const Scalar& s);
  Result<ArrayPtr> Finish();
  TypeId type() const { return type_; }

 private:
  TypeId type_;
  col::Int64Builder int_builder_;
  col::Float64Builder double_builder_;
  col::BoolBuilder bool_builder_;
  col::StringBuilder string_builder_;
  col::TimestampBuilder ts_builder_;
};

}  // namespace bento::kern

#endif  // BENTO_KERNELS_APPLY_H_
