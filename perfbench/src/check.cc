#include "check.h"

#include <cmath>
#include <optional>

#include "datagen/datasets.h"
#include "frame/engine.h"
#include "kernels/sort.h"
#include "sim/machine.h"

namespace perfbench {

using bento::Result;
using bento::Status;
namespace col = bento::col;
namespace frame = bento::frame;
namespace run = bento::run;
namespace sim = bento::sim;

namespace {

// Relative tolerance for float cells: parallel and streaming reductions
// may sum in a different order than the serial reference.
constexpr double kRelTolerance = 1e-9;

bool FloatsMatch(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  if (a == b) return true;
  return std::fabs(a - b) <= kRelTolerance * std::max(std::fabs(a), std::fabs(b));
}

Status CompareInOrder(const col::TablePtr& expected,
                      const col::TablePtr& actual) {
  for (int c = 0; c < expected->num_columns(); ++c) {
    const col::Array& e = *expected->column(c);
    const col::Array& a = *actual->column(c);
    const bool floats = e.type() == col::TypeId::kFloat64 &&
                        a.type() == col::TypeId::kFloat64;
    for (int64_t r = 0; r < expected->num_rows(); ++r) {
      const bool same =
          e.IsNull(r) || a.IsNull(r)
              ? e.IsNull(r) == a.IsNull(r)
              : floats ? FloatsMatch(e.float64_data()[r], a.float64_data()[r])
                       : e.ValueToString(r) == a.ValueToString(r);
      if (!same) {
        return Status::Invalid(
            "column ", expected->schema()->field(c).name, " row ", r,
            ": expected ", e.IsNull(r) ? "null" : e.ValueToString(r),
            ", got ", a.IsNull(r) ? "null" : a.ValueToString(r));
      }
    }
  }
  return Status::OK();
}

Result<col::TablePtr> SortByAllColumns(const col::TablePtr& table) {
  std::vector<bento::kern::SortKey> keys;
  for (int c = 0; c < table->num_columns(); ++c) {
    keys.push_back({table->schema()->field(c).name, true});
  }
  return bento::kern::SortTable(table, keys);
}

// spark_pd materializes its distributed index as "__index__" columns; the
// differential suites drop them before comparing, and so does the check.
Result<col::TablePtr> WithoutIndexColumns(const col::TablePtr& table) {
  std::vector<std::string> index_columns;
  for (int c = 0; c < table->num_columns(); ++c) {
    const std::string& name = table->schema()->field(c).name;
    if (name.rfind("__index__", 0) == 0) index_columns.push_back(name);
  }
  if (index_columns.empty()) return table;
  return table->DropColumns(index_columns);
}

}  // namespace

run::RunConfig ReferenceConfig() {
  run::RunConfig config;
  config.engine_id = "pandas";
  config.machine = sim::MachineSpec{"unbounded", 24, 0, std::nullopt};
  config.mode = run::RunMode::kPipelineFull;
  config.execution_mode = sim::ExecutionMode::kSimulated;
  return config;
}

Result<col::TablePtr> FinalTable(run::Runner* runner,
                                 const run::RunConfig& config,
                                 const run::Pipeline& pipeline,
                                 const std::string& dataset, uint64_t seed,
                                 int64_t* input_rows) {
  BENTO_ASSIGN_OR_RETURN(auto engine, frame::CreateEngine(config.engine_id));
  std::string path;
  if (config.use_bcf_source) {
    BENTO_ASSIGN_OR_RETURN(path, runner->EnsureBcf(dataset));
  } else {
    BENTO_ASSIGN_OR_RETURN(path, runner->EnsureCsv(dataset));
  }
  sim::Session session(runner->EffectiveMachine(config));
  if (config.execution_mode.has_value()) {
    session.set_execution_mode(*config.execution_mode);
  }

  BENTO_ASSIGN_OR_RETURN(frame::DataFrame::Ptr frame,
                         config.use_bcf_source ? engine->ReadBcf(path)
                                               : engine->ReadCsv(path, {}));
  const bool full = config.mode == run::RunMode::kPipelineFull;
  if (!full || input_rows != nullptr) {
    BENTO_ASSIGN_OR_RETURN(auto source, frame->Collect());
    if (input_rows != nullptr) *input_rows = source->num_rows();
  }
  const bool lazy_full = full && engine->info().lazy_evaluation;

  std::optional<frame::Stage> stage;
  for (const run::PipelineStep& step : pipeline.steps) {
    if (stage.has_value() && *stage != step.stage &&
        config.mode == run::RunMode::kPipelineStage) {
      BENTO_RETURN_NOT_OK(frame->Collect().status());
    }
    stage = step.stage;
    frame::Op op = step.op;
    if (op.kind == frame::OpKind::kMerge && op.other == nullptr) {
      BENTO_ASSIGN_OR_RETURN(auto aux, bento::gen::GenerateRegionsTable(seed));
      BENTO_ASSIGN_OR_RETURN(op.other, engine->FromTable(std::move(aux)));
    }
    if (frame::IsAction(op.kind)) {
      if (!lazy_full) BENTO_RETURN_NOT_OK(frame->RunAction(op).status());
      continue;
    }
    BENTO_ASSIGN_OR_RETURN(auto result, frame->Apply(op));
    if (!step.carry && !lazy_full) {
      BENTO_RETURN_NOT_OK(result->Collect().status());
    }
    if (step.carry) frame = std::move(result);
  }
  return frame->Collect();
}

Status CompareTables(const col::TablePtr& expected_in,
                     const col::TablePtr& actual_in) {
  BENTO_ASSIGN_OR_RETURN(auto expected, WithoutIndexColumns(expected_in));
  BENTO_ASSIGN_OR_RETURN(auto actual, WithoutIndexColumns(actual_in));
  if (expected->num_columns() != actual->num_columns() ||
      expected->num_rows() != actual->num_rows()) {
    return Status::Invalid("shape ", actual->num_rows(), "x",
                           actual->num_columns(), ", expected ",
                           expected->num_rows(), "x", expected->num_columns());
  }
  for (int c = 0; c < expected->num_columns(); ++c) {
    if (expected->schema()->field(c).name != actual->schema()->field(c).name) {
      return Status::Invalid("column ", c, " is '",
                             actual->schema()->field(c).name, "', expected '",
                             expected->schema()->field(c).name, "'");
    }
  }
  if (CompareInOrder(expected, actual).ok()) return Status::OK();
  BENTO_ASSIGN_OR_RETURN(auto sorted_expected, SortByAllColumns(expected));
  BENTO_ASSIGN_OR_RETURN(auto sorted_actual, SortByAllColumns(actual));
  return CompareInOrder(sorted_expected, sorted_actual);
}

}  // namespace perfbench
