// The traced run: per-layer metrics of one workload, taken from outside
// each module by timing calls into its public functions and by reading
// deltas of the counters obs::MetricsRegistry keeps.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include "bench.h"

namespace perfbench {

/// Runs the workload's traced passes and layer probes for about `seconds`
/// and returns every per-layer metric. Spans of each call go to `spans`.
Outcome MeasureLayers(Context* ctx, double seconds, SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
