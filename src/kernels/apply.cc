#include "kernels/apply.h"

namespace bento::kern {

Status ScalarColumnAssembler::Append(const Scalar& s) {
  switch (type_) {
    case TypeId::kInt64: {
      if (s.is_null()) {
        int_builder_.AppendNull();
        return Status::OK();
      }
      BENTO_ASSIGN_OR_RETURN(int64_t v, s.AsInt());
      int_builder_.Append(v);
      return Status::OK();
    }
    case TypeId::kFloat64: {
      if (s.is_null()) {
        double_builder_.AppendNull();
        return Status::OK();
      }
      BENTO_ASSIGN_OR_RETURN(double v, s.AsDouble());
      double_builder_.Append(v);
      return Status::OK();
    }
    case TypeId::kBool: {
      if (s.is_null()) {
        bool_builder_.AppendNull();
        return Status::OK();
      }
      if (s.kind() != Scalar::Kind::kBool) {
        return Status::TypeError("apply produced non-bool for bool column");
      }
      bool_builder_.Append(s.bool_value());
      return Status::OK();
    }
    case TypeId::kString: {
      if (s.is_null()) {
        string_builder_.AppendNull();
        return Status::OK();
      }
      string_builder_.Append(s.ToString());
      return Status::OK();
    }
    case TypeId::kTimestamp: {
      if (s.is_null()) {
        ts_builder_.AppendNull();
        return Status::OK();
      }
      BENTO_ASSIGN_OR_RETURN(int64_t v, s.AsInt());
      ts_builder_.Append(v);
      return Status::OK();
    }
    case TypeId::kCategorical:
      return Status::NotImplemented("apply cannot emit categorical columns");
  }
  return Status::Invalid("bad output type");
}

Result<ArrayPtr> ScalarColumnAssembler::Finish() {
  switch (type_) {
    case TypeId::kInt64:
      return int_builder_.Finish();
    case TypeId::kFloat64:
      return double_builder_.Finish();
    case TypeId::kBool:
      return bool_builder_.Finish();
    case TypeId::kString:
      return string_builder_.Finish();
    case TypeId::kTimestamp:
      return ts_builder_.Finish();
    case TypeId::kCategorical:
      break;
  }
  return Status::Invalid("bad output type");
}

Result<ArrayPtr> ApplyRows(const TablePtr& table, const RowFn& fn,
                           TypeId out_type,
                           const sim::ParallelOptions& options) {
  auto eval = [&](int64_t b, int64_t e) -> Result<ArrayPtr> {
    ScalarColumnAssembler assembler(out_type);
    for (int64_t i = b; i < e; ++i) {
      BENTO_ASSIGN_OR_RETURN(Scalar s, fn(*table, i));
      BENTO_RETURN_NOT_OK(assembler.Append(s));
    }
    return assembler.Finish();
  };
  auto ranges =
      sim::SplitRange(table->num_rows(), sim::ResolveWorkers(options), 4096);
  if (ranges.size() <= 1) return eval(0, table->num_rows());

  std::vector<ArrayPtr> parts(ranges.size());
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(ranges.size()),
      [&](int64_t r) -> Status {
        auto [b, e] = ranges[static_cast<size_t>(r)];
        BENTO_ASSIGN_OR_RETURN(parts[static_cast<size_t>(r)], eval(b, e));
        return Status::OK();
      },
      options));

  // Concatenate the chunk outputs through a single-column table.
  std::vector<TablePtr> tables;
  auto schema = std::make_shared<col::Schema>(
      std::vector<col::Field>{{"v", out_type}});
  for (auto& p : parts) {
    BENTO_ASSIGN_OR_RETURN(auto t, Table::Make(schema, {std::move(p)}));
    tables.push_back(std::move(t));
  }
  BENTO_ASSIGN_OR_RETURN(auto merged, col::ConcatTables(tables));
  return merged->column(0);
}

}  // namespace bento::kern
