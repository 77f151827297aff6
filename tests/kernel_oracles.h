// Naive reference implementations of the hash and sort kernels, written
// from the documented semantics and sharing no code with src/kernels: an
// index-loop gather, std::map group-by and dedup, a nested-loop join and a
// std::stable_sort over a from-scratch comparator. The kernel suites check
// every worker count of one entry point against these, so no kernel is
// compared only against itself.
#ifndef BENTO_TESTS_KERNEL_ORACLES_H_
#define BENTO_TESTS_KERNEL_ORACLES_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "columnar/builder.h"
#include "kernels/common.h"
#include "sim/parallel.h"
#include "tests/test_util.h"

namespace bento::test {

/// Worker counts and execution modes every kernel sweep covers.
inline std::vector<sim::ParallelOptions> WorkerSweep() {
  std::vector<sim::ParallelOptions> out;
  for (sim::ExecutionMode mode :
       {sim::ExecutionMode::kSimulated, sim::ExecutionMode::kReal}) {
    for (int workers : {1, 2, 3, 4, 8}) {
      sim::ParallelOptions opts;
      opts.max_workers = workers;
      opts.mode = mode;
      out.push_back(opts);
    }
  }
  return out;
}

inline std::string SweepLabel(const sim::ParallelOptions& opts) {
  return std::string(opts.mode == sim::ExecutionMode::kReal ? "real" : "sim") +
         " workers=" + std::to_string(opts.max_workers);
}

/// Same column names and types, then cell-by-cell equality: nulls at the
/// same rows, doubles bit for bit, categorical cells by decoded string.
/// Reports the first few differing cells per column.
inline void ExpectSameTable(const col::TablePtr& expected,
                            const col::TablePtr& actual) {
  ASSERT_EQ(expected->num_columns(), actual->num_columns());
  ASSERT_EQ(expected->num_rows(), actual->num_rows());
  auto view = [](const col::Array& a, int64_t i) -> std::string_view {
    return a.type() == col::TypeId::kCategorical
               ? std::string_view((*a.dictionary())[static_cast<size_t>(a.codes_data()[i])])
               : a.GetView(i);
  };
  for (int c = 0; c < expected->num_columns(); ++c) {
    const col::Field& field = expected->schema()->field(c);
    EXPECT_EQ(field.name, actual->schema()->field(c).name);
    ASSERT_EQ(field.type, actual->schema()->field(c).type) << field.name;
    const col::Array& e = *expected->column(c);
    const col::Array& a = *actual->column(c);
    int reported = 0;
    for (int64_t r = 0; r < expected->num_rows() && reported < 5; ++r) {
      bool same = e.IsNull(r) == a.IsNull(r);
      if (same && e.IsValid(r)) {
        switch (field.type) {
          case col::TypeId::kInt64:
          case col::TypeId::kTimestamp:
            same = e.int64_data()[r] == a.int64_data()[r];
            break;
          case col::TypeId::kFloat64:
            same = std::memcmp(&e.float64_data()[r], &a.float64_data()[r],
                               sizeof(double)) == 0;
            break;
          case col::TypeId::kBool:
            same = (e.bool_data()[r] != 0) == (a.bool_data()[r] != 0);
            break;
          case col::TypeId::kString:
          case col::TypeId::kCategorical:
            same = view(e, r) == view(a, r);
            break;
        }
      }
      if (!same) {
        ++reported;
        ADD_FAILURE() << "column " << field.name << " row " << r << ": expected "
                      << CellStr(e, r) << ", got " << CellStr(a, r);
      }
    }
  }
}

/// Index-loop gather: row `indices[k]` of every column, -1 -> null.
inline col::TablePtr OracleTake(const col::TablePtr& table,
                                const std::vector<int64_t>& indices) {
  std::vector<col::ArrayPtr> columns;
  for (const col::ArrayPtr& a : table->columns()) {
    auto valid = [&](int64_t i) { return i >= 0 && a->IsValid(i); };
    switch (a->type()) {
      case col::TypeId::kInt64: {
        col::Int64Builder b;
        for (int64_t i : indices) b.AppendMaybe(valid(i) ? a->int64_data()[i] : 0, valid(i));
        columns.push_back(b.Finish().ValueOrDie());
        break;
      }
      case col::TypeId::kTimestamp: {
        col::TimestampBuilder b;
        for (int64_t i : indices) b.AppendMaybe(valid(i) ? a->int64_data()[i] : 0, valid(i));
        columns.push_back(b.Finish().ValueOrDie());
        break;
      }
      case col::TypeId::kFloat64: {
        col::Float64Builder b;
        for (int64_t i : indices) b.AppendMaybe(valid(i) ? a->float64_data()[i] : 0, valid(i));
        columns.push_back(b.Finish().ValueOrDie());
        break;
      }
      case col::TypeId::kBool: {
        col::BoolBuilder b;
        for (int64_t i : indices) b.AppendMaybe(valid(i) && a->bool_data()[i] != 0, valid(i));
        columns.push_back(b.Finish().ValueOrDie());
        break;
      }
      case col::TypeId::kString: {
        col::StringBuilder b;
        for (int64_t i : indices) {
          b.AppendMaybe(valid(i) ? a->GetView(i) : std::string_view(), valid(i));
        }
        columns.push_back(b.Finish().ValueOrDie());
        break;
      }
      case col::TypeId::kCategorical: {
        col::CategoricalBuilder b;
        for (int64_t i : indices) {
          if (valid(i)) {
            b.Append(a->codes_data()[i]);
          } else {
            b.AppendNull();
          }
        }
        columns.push_back(b.Finish(a->dictionary()).ValueOrDie());
        break;
      }
    }
  }
  return col::Table::Make(table->schema(), std::move(columns)).ValueOrDie();
}

/// Grouping identity of one cell: null == null, NaN == NaN, -0.0 == 0.0,
/// and categorical cells equal the plain strings they decode to.
inline std::string CellKey(const col::Array& a, int64_t i) {
  if (a.IsNull(i)) return "N";
  switch (a.type()) {
    case col::TypeId::kInt64:
    case col::TypeId::kTimestamp:
      return "i" + std::to_string(a.int64_data()[i]);
    case col::TypeId::kFloat64: {
      const double v = a.float64_data()[i];
      if (std::isnan(v)) return "nan";
      if (v == 0.0) return "f0";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "f%a", v);
      return buf;
    }
    case col::TypeId::kBool:
      return a.bool_data()[i] != 0 ? "b1" : "b0";
    case col::TypeId::kString:
      return "s" + std::string(a.GetView(i));
    case col::TypeId::kCategorical:
      return "s" + (*a.dictionary())[static_cast<size_t>(a.codes_data()[i])];
  }
  return "?";
}

inline std::string RowKey(const std::vector<col::ArrayPtr>& cols, int64_t i) {
  std::string key;
  for (const col::ArrayPtr& c : cols) {
    const std::string cell = CellKey(*c, i);
    key += std::to_string(cell.size()) + ":" + cell;
  }
  return key;
}

inline std::vector<col::ArrayPtr> Columns(const col::TablePtr& table,
                                          std::vector<std::string> names) {
  if (names.empty()) names = table->schema()->names();
  std::vector<col::ArrayPtr> out;
  for (const std::string& n : names) out.push_back(table->GetColumn(n).ValueOrDie());
  return out;
}

/// First occurrence of each distinct row over `subset` (all columns when
/// empty), in row order.
inline col::TablePtr OracleDropDuplicates(const col::TablePtr& table,
                                          const std::vector<std::string>& subset) {
  const auto cols = Columns(table, subset);
  std::set<std::string> seen;
  std::vector<int64_t> keep;
  for (int64_t i = 0; i < table->num_rows(); ++i) {
    if (seen.insert(RowKey(cols, i)).second) keep.push_back(i);
  }
  return OracleTake(table, keep);
}

/// Group-by with a std::map from row key to group: groups in first-seen
/// order, each aggregate folded over the group's non-null, non-NaN inputs
/// in row order (kCount counts them; the rest are null for an empty group,
/// and kStd also for a single value).
inline col::TablePtr OracleGroupBy(const col::TablePtr& table,
                                   const std::vector<std::string>& keys,
                                   const std::vector<kern::AggSpec>& aggs) {
  const auto key_cols = Columns(table, keys);
  std::vector<col::ArrayPtr> agg_cols;
  for (const auto& spec : aggs) agg_cols.push_back(table->GetColumn(spec.column).ValueOrDie());
  std::map<std::string, size_t> group_of;
  std::vector<int64_t> reps;
  std::vector<std::vector<std::vector<double>>> inputs;  // [group][agg]
  for (int64_t i = 0; i < table->num_rows(); ++i) {
    auto [it, inserted] = group_of.emplace(RowKey(key_cols, i), reps.size());
    if (inserted) {
      reps.push_back(i);
      inputs.emplace_back(aggs.size());
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      const col::ArrayPtr& c = agg_cols[a];
      if (c->IsNull(i)) continue;
      double v = 0.0;  // string/categorical inputs only feed kCount
      if (c->type() == col::TypeId::kFloat64) v = c->float64_data()[i];
      if (c->type() == col::TypeId::kBool) v = c->bool_data()[i] != 0 ? 1.0 : 0.0;
      if (c->type() == col::TypeId::kInt64 || c->type() == col::TypeId::kTimestamp) {
        v = static_cast<double>(c->int64_data()[i]);
      }
      if (!std::isnan(v)) inputs[it->second][a].push_back(v);
    }
  }
  auto out = OracleTake(table->SelectColumns(keys).ValueOrDie(), reps);
  std::vector<col::Field> fields = out->schema()->fields();
  std::vector<col::ArrayPtr> columns = out->columns();
  for (size_t a = 0; a < aggs.size(); ++a) {
    const std::string name = aggs[a].output_name.empty()
                                 ? aggs[a].column + "_" + kern::AggName(aggs[a].kind)
                                 : aggs[a].output_name;
    if (aggs[a].kind == kern::AggKind::kCount) {
      col::Int64Builder b;
      for (const auto& g : inputs) b.Append(static_cast<int64_t>(g[a].size()));
      fields.push_back({name, col::TypeId::kInt64});
      columns.push_back(b.Finish().ValueOrDie());
      continue;
    }
    col::Float64Builder b;
    for (const auto& g : inputs) {
      const std::vector<double>& xs = g[a];
      if (xs.empty()) {
        b.AppendNull();
        continue;
      }
      double sum = 0.0, sum_sq = 0.0, lo = xs[0], hi = xs[0];
      for (double x : xs) {
        sum += x;
        sum_sq += x * x;
        if (x < lo) lo = x;
        if (x > hi) hi = x;
      }
      const double n = static_cast<double>(xs.size());
      switch (aggs[a].kind) {
        case kern::AggKind::kSum: b.Append(sum); break;
        case kern::AggKind::kMean: b.Append(sum / n); break;
        case kern::AggKind::kMin: b.Append(lo); break;
        case kern::AggKind::kMax: b.Append(hi); break;
        case kern::AggKind::kSumSq: b.Append(sum_sq); break;
        case kern::AggKind::kStd: {
          if (xs.size() < 2) {
            b.AppendNull();
            break;
          }
          const double var = (sum_sq - sum * sum / n) / (n - 1.0);
          b.Append(var > 0.0 ? std::sqrt(var) : 0.0);
          break;
        }
        case kern::AggKind::kCount: break;
      }
    }
    fields.push_back({name, col::TypeId::kFloat64});
    columns.push_back(b.Finish().ValueOrDie());
  }
  return col::Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                          std::move(columns))
      .ValueOrDie();
}

/// Nested-loop equi-join on one key: left rows in order, each followed by
/// its matching right rows in right-row order; null keys never match; a
/// left join pads unmatched left rows with nulls. Output columns: left,
/// then right minus its key (suffixed on a name collision).
inline col::TablePtr OracleJoin(const col::TablePtr& left,
                                const col::TablePtr& right,
                                const std::string& left_key,
                                const std::string& right_key,
                                kern::JoinType type,
                                const std::string& right_suffix = "_r") {
  const auto lk = left->GetColumn(left_key).ValueOrDie();
  const auto rk = right->GetColumn(right_key).ValueOrDie();
  // Canonical key ids (null -> -1) keep the nested loop to int compares.
  std::map<std::string, int64_t> ids;
  auto key_ids = [&](const col::Array& a) {
    std::vector<int64_t> out(static_cast<size_t>(a.length()), -1);
    for (int64_t i = 0; i < a.length(); ++i) {
      if (a.IsValid(i)) {
        out[static_cast<size_t>(i)] =
            ids.emplace(CellKey(a, i), static_cast<int64_t>(ids.size())).first->second;
      }
    }
    return out;
  };
  const std::vector<int64_t> lids = key_ids(*lk);
  const std::vector<int64_t> rids = key_ids(*rk);
  std::vector<int64_t> lrows, rrows;
  for (int64_t i = 0; i < left->num_rows(); ++i) {
    bool matched = false;
    const int64_t key = lids[static_cast<size_t>(i)];
    if (key >= 0) {
      for (int64_t j = 0; j < right->num_rows(); ++j) {
        if (rids[static_cast<size_t>(j)] == key) {
          lrows.push_back(i);
          rrows.push_back(j);
          matched = true;
        }
      }
    }
    if (!matched && type == kern::JoinType::kLeft) {
      lrows.push_back(i);
      rrows.push_back(-1);
    }
  }
  auto lout = OracleTake(left, lrows);
  auto rout = OracleTake(right->DropColumns({right_key}).ValueOrDie(), rrows);
  std::vector<col::Field> fields = lout->schema()->fields();
  std::vector<col::ArrayPtr> columns = lout->columns();
  for (int c = 0; c < rout->num_columns(); ++c) {
    col::Field f = rout->schema()->field(c);
    if (left->schema()->Contains(f.name)) f.name += right_suffix;
    fields.push_back(f);
    columns.push_back(rout->column(c));
  }
  return col::Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                          std::move(columns))
      .ValueOrDie();
}

/// Stable argsort from a from-scratch comparator: per key, values order by
/// direction, then NaN, then null (the last two regardless of direction);
/// categorical cells order by their decoded strings.
inline std::vector<int64_t> OracleArgSort(const col::TablePtr& table,
                                          const std::vector<kern::SortKey>& keys) {
  std::vector<col::ArrayPtr> cols;
  for (const auto& k : keys) cols.push_back(table->GetColumn(k.column).ValueOrDie());
  // Rank 0 = value, 1 = NaN, 2 = null; values compare only at equal rank 0.
  auto rank = [](const col::Array& a, int64_t i) {
    if (a.IsNull(i)) return 2;
    if (a.type() == col::TypeId::kFloat64 && std::isnan(a.float64_data()[i])) return 1;
    return 0;
  };
  auto compare_values = [](const col::Array& a, int64_t i, int64_t j) {
    switch (a.type()) {
      case col::TypeId::kFloat64: {
        const double x = a.float64_data()[i], y = a.float64_data()[j];
        return x < y ? -1 : (y < x ? 1 : 0);
      }
      case col::TypeId::kInt64:
      case col::TypeId::kTimestamp: {
        const int64_t x = a.int64_data()[i], y = a.int64_data()[j];
        return x < y ? -1 : (y < x ? 1 : 0);
      }
      case col::TypeId::kBool:
        return static_cast<int>(a.bool_data()[i] != 0) - static_cast<int>(a.bool_data()[j] != 0);
      default: {
        const std::string x = a.ValueToString(i), y = a.ValueToString(j);
        return x.compare(y) < 0 ? -1 : (x.compare(y) > 0 ? 1 : 0);
      }
    }
  };
  std::vector<int64_t> order(static_cast<size_t>(table->num_rows()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  std::stable_sort(order.begin(), order.end(), [&](int64_t i, int64_t j) {
    for (size_t k = 0; k < keys.size(); ++k) {
      const col::Array& a = *cols[k];
      const int ri = rank(a, i), rj = rank(a, j);
      if (ri != rj) return ri < rj;
      if (ri != 0) continue;
      const int c = compare_values(a, i, j);
      if (c != 0) return keys[k].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  return order;
}

}  // namespace bento::test

#endif  // BENTO_TESTS_KERNEL_ORACLES_H_
