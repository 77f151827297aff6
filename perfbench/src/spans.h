// In-memory span recorder for the traced run. The benchmark opens a span
// around each call it makes into a layer (name "<layer>.<call>"); spans of
// one pipeline run share a run id. Spans are written out when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  ///< index into spans(), -1 for a root
    int64_t run_id = 0;
  };

  /// Opens a span on construction and closes it on destruction. A null
  /// recorder makes the scope inert (the untraced path).
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_ = -1;
  };

  /// Starts a new pipeline run: later spans carry a fresh run id.
  void NewRun() { ++run_id_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per layer (the name up to the first '.'): each span's
  /// duration minus the part its child spans cover.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// {"spans": [...], "self_s_by_layer": {...}}
  bento::JsonValue ToJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int64_t run_id_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
