// Output check: every cell's final table against a reference computed by
// pandas on the same seeded data on an unbounded machine.
#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <string>

#include "bento/runner.h"
#include "columnar/table.h"

namespace perfbench {

/// Runs `pipeline` on `dataset` the way Runner::Run does for `config`
/// (same machine, run mode, execution backend, source format, forcing
/// points) and returns the final working table. Runner::Run reports only
/// timings, so the check re-drives the public engine API to see the data.
/// `input_rows`, when set, receives the row count of the source file.
bento::Result<bento::col::TablePtr> FinalTable(
    bento::run::Runner* runner, const bento::run::RunConfig& config,
    const bento::run::Pipeline& pipeline, const std::string& dataset,
    uint64_t seed, int64_t* input_rows = nullptr);

/// The reference configuration: pandas, simulated execution, full-pipeline
/// mode, CSV source, on a machine with no memory budget.
bento::run::RunConfig ReferenceConfig();

/// Equivalence of two final tables under the differential suites' rules:
/// same column names and row count, integers, strings, booleans and
/// timestamps exactly equal, floats equal within a relative tolerance;
/// spark_pd's "__index__" columns are dropped first.
/// Rows are compared in order first; when that fails, both tables are
/// sorted by every column and compared again, since engines may emit
/// group-by and dedup output in a different (unspecified) order.
/// Returns OK or an Invalid status naming the first difference.
bento::Status CompareTables(const bento::col::TablePtr& expected,
                            const bento::col::TablePtr& actual);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
