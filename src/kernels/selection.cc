#include "kernels/selection.h"

#include <cstring>

#include "columnar/builder.h"
#include "obs/trace.h"
#include "simd/simd.h"

namespace bento::kern {

namespace {

using col::StringBuilder;

/// Buffers of one gathered fixed-width column.
struct GatheredBuffers {
  col::BufferPtr data;
  col::BufferPtr validity;  // nullptr when no output slot is null
  int64_t null_count = 0;
};

/// Sized gather of pre-materialized filter indices into a fixed-width
/// column: exact-size output buffer, no builder growth. Null slots keep the
/// zero-initialized payload (the bytes a builder's AppendNull would stage).
template <typename T>
Result<GatheredBuffers> FilterGatherFixed(const ArrayPtr& values,
                                          const T* src, const int64_t* idx,
                                          int64_t count) {
  GatheredBuffers out;
  BENTO_ASSIGN_OR_RETURN(
      out.data, col::Buffer::Allocate(static_cast<uint64_t>(count) * sizeof(T)));
  T* dst = out.data->template mutable_data_as<T>();
  const uint8_t* src_valid = values->validity_bits();
  if (src_valid == nullptr) {
    for (int64_t k = 0; k < count; ++k) dst[k] = src[idx[k]];
    return out;
  }
  BENTO_ASSIGN_OR_RETURN(auto validity, col::AllocateBitmap(count, false));
  uint8_t* vbits = validity->mutable_data();
  int64_t valid = 0;
  for (int64_t k = 0; k < count; ++k) {
    const int64_t i = idx[k];
    if (col::BitIsSet(src_valid, i)) {
      dst[k] = src[i];
      col::SetBit(vbits, k);
      ++valid;
    }
  }
  out.null_count = count - valid;
  if (out.null_count > 0) out.validity = std::move(validity);
  return out;
}

}  // namespace

Result<ArrayPtr> Filter(const ArrayPtr& values, const ArrayPtr& mask) {
  if (mask->type() != TypeId::kBool) {
    return Status::TypeError("filter mask must be bool, got ",
                             col::TypeName(mask->type()));
  }
  if (mask->length() != values->length()) {
    return Status::Invalid("mask length ", mask->length(),
                           " != values length ", values->length());
  }
  // Vectorized mask scan: materialize the selected row indices once, then
  // gather into exact-size output buffers.
  const int64_t n = values->length();
  std::vector<int64_t> idx(static_cast<size_t>(n));
  const int64_t count =
      simd::MaskToIndices(mask->bool_data(), mask->validity_bits(), n,
                          idx.data());
  switch (values->type()) {
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      BENTO_ASSIGN_OR_RETURN(
          auto g, FilterGatherFixed<int64_t>(values, values->int64_data(),
                                             idx.data(), count));
      return Array::MakeFixed(values->type(), count, std::move(g.data),
                              std::move(g.validity), g.null_count);
    }
    case TypeId::kFloat64: {
      BENTO_ASSIGN_OR_RETURN(
          auto g, FilterGatherFixed<double>(values, values->float64_data(),
                                            idx.data(), count));
      return Array::MakeFixed(TypeId::kFloat64, count, std::move(g.data),
                              std::move(g.validity), g.null_count);
    }
    case TypeId::kBool: {
      BENTO_ASSIGN_OR_RETURN(
          auto g, FilterGatherFixed<uint8_t>(values, values->bool_data(),
                                             idx.data(), count));
      return Array::MakeFixed(TypeId::kBool, count, std::move(g.data),
                              std::move(g.validity), g.null_count);
    }
    case TypeId::kString: {
      StringBuilder builder;
      builder.Reserve(count);
      for (int64_t k = 0; k < count; ++k) {
        const int64_t i = idx[static_cast<size_t>(k)];
        if (values->IsValid(i)) {
          builder.Append(values->GetView(i));
        } else {
          builder.AppendNull();
        }
      }
      return builder.Finish();
    }
    case TypeId::kCategorical: {
      BENTO_ASSIGN_OR_RETURN(
          auto g, FilterGatherFixed<int32_t>(values, values->codes_data(),
                                             idx.data(), count));
      return Array::MakeCategorical(count, std::move(g.data),
                                    values->dictionary(), std::move(g.validity),
                                    g.null_count);
    }
  }
  return Status::Invalid("unsupported type in Filter");
}

Result<TablePtr> FilterTable(const TablePtr& table, const ArrayPtr& mask) {
  std::vector<ArrayPtr> columns;
  columns.reserve(static_cast<size_t>(table->num_columns()));
  for (const ArrayPtr& c : table->columns()) {
    BENTO_ASSIGN_OR_RETURN(auto filtered, Filter(c, mask));
    columns.push_back(std::move(filtered));
  }
  if (columns.empty()) return table;
  return Table::Make(table->schema(), std::move(columns));
}

// ---------------------------------------------------------------------------
// Sized gather (Take / TakeTable)
// ---------------------------------------------------------------------------

namespace {

/// Shared per-call state of a sized gather: the morsel decomposition plus
/// whether any index is negative (which forces a validity bitmap). Computed
/// once per table so the per-column passes skip the re-scan.
struct GatherPlan {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  bool any_negative = false;
};

/// Morsel-parallel bounds scan. Reports the first out-of-bounds index for
/// any worker count: ranges are ordered, so the earliest offending range's
/// first hit is the global first.
Result<GatherPlan> PlanGather(const std::vector<int64_t>& indices,
                              int64_t source_length,
                              const sim::ParallelOptions& options) {
  GatherPlan plan;
  const int64_t n = static_cast<int64_t>(indices.size());
  plan.ranges = sim::MorselRanges(n, sim::ResolveWorkers(options));
  std::vector<int64_t> first_bad(plan.ranges.size(), -1);
  std::vector<uint8_t> has_negative(plan.ranges.size(), 0);
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(plan.ranges.size()),
      [&](int64_t r) {
        auto [b, e] = plan.ranges[static_cast<size_t>(r)];
        bool negative = false;
        for (int64_t i = b; i < e; ++i) {
          const int64_t idx = indices[static_cast<size_t>(i)];
          negative |= idx < 0;
          if (idx >= source_length) {
            first_bad[static_cast<size_t>(r)] = i;
            break;
          }
        }
        has_negative[static_cast<size_t>(r)] = negative ? 1 : 0;
        return Status::OK();
      },
      options));
  for (size_t r = 0; r < plan.ranges.size(); ++r) {
    if (first_bad[r] >= 0) {
      return Status::IndexError("take index ",
                                indices[static_cast<size_t>(first_bad[r])],
                                " out of bounds (length ", source_length, ")");
    }
    plan.any_negative |= has_negative[r] != 0;
  }
  return plan;
}

/// Fixed-width gather: exact-size output buffer, one memwrite per row, no
/// builder growth. Null slots keep the zero-initialized value (the bytes a
/// builder's AppendNull would stage).
template <typename T>
Result<GatheredBuffers> GatherFixed(const ArrayPtr& values, const T* src,
                                    const std::vector<int64_t>& indices,
                                    const GatherPlan& plan,
                                    const sim::ParallelOptions& options) {
  const int64_t n = static_cast<int64_t>(indices.size());
  BENTO_ASSIGN_OR_RETURN(
      auto data, col::Buffer::Allocate(static_cast<uint64_t>(n) * sizeof(T)));
  T* dst = data->mutable_data_as<T>();

  const bool need_validity = plan.any_negative || values->MayHaveNulls();
  col::BufferPtr validity;
  uint8_t* vbits = nullptr;
  if (need_validity) {
    BENTO_ASSIGN_OR_RETURN(validity, col::AllocateBitmap(n, false));
    vbits = validity->mutable_data();
  }
  const uint8_t* src_valid = values->validity_bits();

  std::vector<int64_t> valid_counts(plan.ranges.size(), 0);
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(plan.ranges.size()),
      [&](int64_t r) {
        auto [b, e] = plan.ranges[static_cast<size_t>(r)];
        if (vbits == nullptr) {
          for (int64_t i = b; i < e; ++i) {
            dst[i] = src[indices[static_cast<size_t>(i)]];
          }
          return Status::OK();
        }
        int64_t count = 0;
        for (int64_t i = b; i < e; ++i) {
          const int64_t idx = indices[static_cast<size_t>(i)];
          if (idx < 0 || (src_valid != nullptr && !col::BitIsSet(src_valid, idx))) {
            continue;  // zero-initialized data + cleared bit = null slot
          }
          dst[i] = src[idx];
          col::SetBit(vbits, i);
          ++count;
        }
        valid_counts[static_cast<size_t>(r)] = count;
        return Status::OK();
      },
      options));

  GatheredBuffers out;
  out.data = std::move(data);
  if (vbits != nullptr) {
    out.null_count = n;
    for (int64_t c : valid_counts) out.null_count -= c;
    if (out.null_count > 0) out.validity = std::move(validity);
  }
  return out;
}

Result<ArrayPtr> GatherString(const ArrayPtr& values,
                              const std::vector<int64_t>& indices,
                              const GatherPlan& plan,
                              const sim::ParallelOptions& options) {
  const int64_t n = static_cast<int64_t>(indices.size());
  const int64_t* src_off = values->offsets_data();
  const char* src_chars = values->chars_data();
  const uint8_t* src_valid = values->validity_bits();

  BENTO_ASSIGN_OR_RETURN(
      auto offsets,
      col::Buffer::Allocate(static_cast<uint64_t>(n + 1) * sizeof(int64_t)));
  int64_t* off = offsets->mutable_data_as<int64_t>();

  const bool need_validity = plan.any_negative || values->MayHaveNulls();
  col::BufferPtr validity;
  uint8_t* vbits = nullptr;
  if (need_validity) {
    BENTO_ASSIGN_OR_RETURN(validity, col::AllocateBitmap(n, false));
    vbits = validity->mutable_data();
  }

  // Pass 1: per-row byte lengths (staged in off[i+1]) + per-range totals.
  const size_t nranges = plan.ranges.size();
  std::vector<int64_t> range_bytes(nranges, 0);
  std::vector<int64_t> valid_counts(nranges, 0);
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(nranges),
      [&](int64_t r) {
        auto [b, e] = plan.ranges[static_cast<size_t>(r)];
        int64_t bytes = 0;
        int64_t count = 0;
        for (int64_t i = b; i < e; ++i) {
          const int64_t idx = indices[static_cast<size_t>(i)];
          int64_t len = 0;
          if (idx >= 0 &&
              (src_valid == nullptr || col::BitIsSet(src_valid, idx))) {
            len = src_off[idx + 1] - src_off[idx];
            if (vbits != nullptr) col::SetBit(vbits, i);
            ++count;
          }
          off[i + 1] = len;
          bytes += len;
        }
        range_bytes[static_cast<size_t>(r)] = bytes;
        valid_counts[static_cast<size_t>(r)] = count;
        return Status::OK();
      },
      options));

  // Serial prefix over range totals -> per-range base offsets.
  std::vector<int64_t> range_base(nranges, 0);
  int64_t total_bytes = 0;
  for (size_t r = 0; r < nranges; ++r) {
    range_base[r] = total_bytes;
    total_bytes += range_bytes[r];
  }

  // Pass 2: staged lengths -> absolute offsets. Each range reads and writes
  // only its own off[b+1..e]; off[b] was finalized by the preceding range
  // (and off[0] is the buffer's zero initialization).
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(nranges),
      [&](int64_t r) {
        auto [b, e] = plan.ranges[static_cast<size_t>(r)];
        int64_t running = range_base[static_cast<size_t>(r)];
        for (int64_t i = b; i < e; ++i) {
          running += off[i + 1];
          off[i + 1] = running;
        }
        return Status::OK();
      },
      options));

  BENTO_ASSIGN_OR_RETURN(auto chars,
                         col::Buffer::Allocate(static_cast<uint64_t>(total_bytes)));
  char* dst_chars = reinterpret_cast<char*>(chars->mutable_data());

  // Pass 3: byte copies into disjoint [off[i], off[i+1]) spans.
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(nranges),
      [&](int64_t r) {
        auto [b, e] = plan.ranges[static_cast<size_t>(r)];
        for (int64_t i = b; i < e; ++i) {
          const int64_t len = off[i + 1] - off[i];
          if (len > 0) {
            const int64_t idx = indices[static_cast<size_t>(i)];
            std::memcpy(dst_chars + off[i], src_chars + src_off[idx],
                        static_cast<size_t>(len));
          }
        }
        return Status::OK();
      },
      options));

  int64_t null_count = 0;
  if (vbits != nullptr) {
    null_count = n;
    for (int64_t c : valid_counts) null_count -= c;
    if (null_count == 0) validity.reset();
  }
  return Array::MakeString(n, std::move(offsets), std::move(chars),
                           std::move(validity), null_count);
}

Result<ArrayPtr> GatherColumn(const ArrayPtr& values,
                                  const std::vector<int64_t>& indices,
                                  const GatherPlan& plan,
                                  const sim::ParallelOptions& options) {
  const int64_t n = static_cast<int64_t>(indices.size());
  switch (values->type()) {
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      BENTO_ASSIGN_OR_RETURN(
          auto g, GatherFixed<int64_t>(values, values->int64_data(), indices,
                                       plan, options));
      return Array::MakeFixed(values->type(), n, std::move(g.data),
                              std::move(g.validity), g.null_count);
    }
    case TypeId::kFloat64: {
      BENTO_ASSIGN_OR_RETURN(
          auto g, GatherFixed<double>(values, values->float64_data(), indices,
                                      plan, options));
      return Array::MakeFixed(TypeId::kFloat64, n, std::move(g.data),
                              std::move(g.validity), g.null_count);
    }
    case TypeId::kBool: {
      BENTO_ASSIGN_OR_RETURN(
          auto g, GatherFixed<uint8_t>(values, values->bool_data(), indices,
                                       plan, options));
      return Array::MakeFixed(TypeId::kBool, n, std::move(g.data),
                              std::move(g.validity), g.null_count);
    }
    case TypeId::kString:
      return GatherString(values, indices, plan, options);
    case TypeId::kCategorical: {
      BENTO_ASSIGN_OR_RETURN(
          auto g, GatherFixed<int32_t>(values, values->codes_data(), indices,
                                       plan, options));
      return Array::MakeCategorical(n, std::move(g.data), values->dictionary(),
                                    std::move(g.validity), g.null_count);
    }
  }
  return Status::Invalid("unsupported type in Take");
}

}  // namespace

Result<ArrayPtr> Take(const ArrayPtr& values,
                      const std::vector<int64_t>& indices,
                      const sim::ParallelOptions& options) {
  BENTO_ASSIGN_OR_RETURN(auto plan,
                         PlanGather(indices, values->length(), options));
  return GatherColumn(values, indices, plan, options);
}

Result<TablePtr> TakeTable(const TablePtr& table,
                           const std::vector<int64_t>& indices,
                           const sim::ParallelOptions& options) {
  BENTO_TRACE_SPAN(kKernel, "take");
  BENTO_ASSIGN_OR_RETURN(auto plan,
                         PlanGather(indices, table->num_rows(), options));
  std::vector<ArrayPtr> columns;
  columns.reserve(static_cast<size_t>(table->num_columns()));
  for (const ArrayPtr& c : table->columns()) {
    BENTO_ASSIGN_OR_RETURN(auto taken,
                           GatherColumn(c, indices, plan, options));
    columns.push_back(std::move(taken));
  }
  if (columns.empty()) return table;
  return Table::Make(table->schema(), std::move(columns));
}

}  // namespace bento::kern
