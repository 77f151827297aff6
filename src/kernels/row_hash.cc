#include "kernels/row_hash.h"

#include <cmath>
#include <cstring>

#include "kernels/flat_index.h"
#include "sim/parallel.h"
#include "simd/simd.h"

namespace bento::kern {

namespace {

constexpr uint64_t kNullTag = 0x9AE16A3B2F90404FULL;

/// Hash combiner (Murmur3-finalizer variant); the one definition lives in
/// simd/hash.h so the vectorized mix kernels stay bit-identical.
inline uint64_t Mix(uint64_t h, uint64_t v) { return simd::MixU64(h, v); }

/// Reference cell hash: the semantic definition the SIMD fast paths below
/// reproduce. Still the direct implementation for bool and string cells.
inline uint64_t HashCell(const Array& a, int64_t i) {
  if (a.IsNull(i)) return kNullTag;
  switch (a.type()) {
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      return HashWord64(static_cast<uint64_t>(a.int64_data()[i]));
    case TypeId::kFloat64: {
      double v = a.float64_data()[i];
      if (v == 0.0) v = 0.0;  // normalize -0.0
      if (std::isnan(v)) return kNullTag ^ 1;
      uint64_t bits;
      std::memcpy(&bits, &v, 8);
      return HashWord64(bits);
    }
    case TypeId::kBool:
      return a.bool_data()[i] != 0 ? 0x12345 : 0x54321;
    case TypeId::kString: {
      std::string_view v = a.GetView(i);
      return Hash64(v.data(), v.size());
    }
    case TypeId::kCategorical: {
      // Hash the dictionary value so equal strings match across dictionaries.
      const auto& dict = *a.dictionary();
      const std::string& v = dict[static_cast<size_t>(a.codes_data()[i])];
      return Hash64(v.data(), v.size());
    }
  }
  return 0;
}

/// One key column prepared for range mixing. Fixed-width columns route
/// through the simd hash-mix kernels; categorical columns hash each
/// dictionary entry once and mix by code lookup (the rows-much-greater-
/// than-cardinality win), keeping cell hashes identical to hashing the
/// decoded strings.
struct ColumnHasher {
  const Array* array = nullptr;
  std::vector<uint64_t> code_hashes;

  explicit ColumnHasher(const Array* a) : array(a) {
    if (a->type() == TypeId::kCategorical) {
      const auto& dict = *a->dictionary();
      code_hashes.resize(dict.size());
      for (size_t c = 0; c < dict.size(); ++c) {
        code_hashes[c] = Hash64(dict[c].data(), dict[c].size());
      }
    }
  }

  /// Combines this column into the running row hashes for [begin, end).
  void MixRange(int64_t begin, int64_t end, uint64_t* hashes) const {
    const Array& a = *array;
    const uint8_t* validity = a.validity_bits();
    switch (a.type()) {
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        simd::HashMixU64(hashes,
                         reinterpret_cast<const uint64_t*>(a.int64_data()),
                         validity, begin, end, kNullTag);
        return;
      case TypeId::kFloat64:
        simd::HashMixF64(hashes, a.float64_data(), validity, begin, end,
                         kNullTag);
        return;
      case TypeId::kCategorical:
        simd::HashMixCodes(hashes, a.codes_data(), validity, begin, end,
                           code_hashes.data(), kNullTag);
        return;
      default:
        for (int64_t i = begin; i < end; ++i) {
          hashes[i] = Mix(hashes[i], HashCell(a, i));
        }
    }
  }
};

Result<std::vector<ArrayPtr>> ResolveColumns(
    const TablePtr& table, const std::vector<std::string>& columns) {
  if (columns.empty()) return table->columns();
  std::vector<ArrayPtr> cols;
  for (const std::string& name : columns) {
    BENTO_ASSIGN_OR_RETURN(auto c, table->GetColumn(name));
    cols.push_back(std::move(c));
  }
  return cols;
}

std::vector<ColumnHasher> PrepareHashers(const std::vector<ArrayPtr>& cols) {
  std::vector<ColumnHasher> hashers;
  hashers.reserve(cols.size());
  for (const ArrayPtr& c : cols) hashers.emplace_back(c.get());
  return hashers;
}

}  // namespace

Result<std::vector<uint64_t>> HashRows(
    const TablePtr& table, const std::vector<std::string>& columns,
    const sim::ParallelOptions& options) {
  BENTO_ASSIGN_OR_RETURN(auto cols, ResolveColumns(table, columns));
  const int64_t n = table->num_rows();
  std::vector<uint64_t> hashes(static_cast<size_t>(n),
                               0x8445D61A4E774912ULL);
  if (detail::ForcedHashCollisionsActive()) return hashes;  // all rows collide
  const auto hashers = PrepareHashers(cols);
  auto ranges = sim::SplitRange(n, sim::ResolveWorkers(options), 8192);
  // Tasks own disjoint row ranges; every task sweeps all key columns so the
  // combiner order is the same for every split.
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(ranges.size()),
      [&](int64_t r) {
        auto [b, e] = ranges[static_cast<size_t>(r)];
        for (const ColumnHasher& h : hashers) {
          h.MixRange(b, e, hashes.data());
        }
        return Status::OK();
      },
      options));
  return hashes;
}

Result<RowEquality> RowEquality::Make(
    const TablePtr& left, const std::vector<std::string>& left_cols,
    const TablePtr& right, const std::vector<std::string>& right_cols) {
  if (left_cols.size() != right_cols.size()) {
    return Status::Invalid("column count mismatch in RowEquality");
  }
  RowEquality eq;
  for (size_t k = 0; k < left_cols.size(); ++k) {
    BENTO_ASSIGN_OR_RETURN(auto lc, left->GetColumn(left_cols[k]));
    BENTO_ASSIGN_OR_RETURN(auto rc, right->GetColumn(right_cols[k]));
    const bool same =
        lc->type() == rc->type() ||
        (col::IsNumeric(lc->type()) && col::IsNumeric(rc->type())) ||
        // categorical and string compare by value
        ((lc->type() == TypeId::kString || lc->type() == TypeId::kCategorical) &&
         (rc->type() == TypeId::kString || rc->type() == TypeId::kCategorical));
    if (!same) {
      return Status::TypeError("key type mismatch: ", col::TypeName(lc->type()),
                               " vs ", col::TypeName(rc->type()));
    }
    // Same-dictionary categorical pairs compare by integer code: dictionary
    // entries are unique (interner-built), so code equality is string
    // equality. Cross-dictionary pairs still compare decoded strings.
    eq.same_dict_.push_back(lc->type() == TypeId::kCategorical &&
                            rc->type() == TypeId::kCategorical &&
                            lc->dictionary() == rc->dictionary());
    eq.left_.push_back(std::move(lc));
    eq.right_.push_back(std::move(rc));
  }
  return eq;
}

namespace {

inline std::string_view StringAt(const Array& a, int64_t i) {
  if (a.type() == TypeId::kCategorical) {
    return (*a.dictionary())[static_cast<size_t>(a.codes_data()[i])];
  }
  return a.GetView(i);
}

inline double NumericAt(const Array& a, int64_t i) {
  return a.type() == TypeId::kFloat64 ? a.float64_data()[i]
                                      : static_cast<double>(a.int64_data()[i]);
}

bool CellEqual(const Array& l, int64_t i, const Array& r, int64_t j) {
  const bool ln = l.IsNull(i);
  const bool rn = r.IsNull(j);
  if (ln || rn) return ln && rn;  // null == null for grouping semantics
  switch (l.type()) {
    case TypeId::kBool:
      return (l.bool_data()[i] != 0) == (r.bool_data()[j] != 0);
    case TypeId::kString:
    case TypeId::kCategorical:
      return StringAt(l, i) == StringAt(r, j);
    default: {
      double lv = NumericAt(l, i);
      double rv = NumericAt(r, j);
      if (std::isnan(lv) || std::isnan(rv)) {
        return std::isnan(lv) && std::isnan(rv);
      }
      return lv == rv;
    }
  }
}

}  // namespace

bool RowEquality::Equal(int64_t i, int64_t j) const {
  for (size_t k = 0; k < left_.size(); ++k) {
    const Array& l = *left_[k];
    const Array& r = *right_[k];
    if (same_dict_[k]) {
      const bool ln = l.IsNull(i);
      const bool rn = r.IsNull(j);
      if (ln || rn) {
        if (ln && rn) continue;
        return false;
      }
      if (l.codes_data()[i] != r.codes_data()[j]) return false;
      continue;
    }
    if (!CellEqual(l, i, r, j)) return false;
  }
  return true;
}

}  // namespace bento::kern
