#include "spans.h"

#include "sim/machine.h"

namespace perfbench {

using bento::JsonValue;

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  Span span;
  span.name = std::move(name);
  span.parent = recorder_->open_.empty() ? -1 : recorder_->open_.back();
  span.run_id = recorder_->run_id_;
  span.start_s = bento::sim::NowSeconds();
  index_ = static_cast<int>(recorder_->spans_.size());
  recorder_->spans_.push_back(std::move(span));
  recorder_->open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->spans_[static_cast<size_t>(index_)].end_s =
      bento::sim::NowSeconds();
  recorder_->open_.pop_back();
}

std::map<std::string, double> SpanRecorder::SelfSecondsByLayer() const {
  // Children of one parent run one after another on the benchmark thread,
  // so the part they cover is the sum of their durations.
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  return by_layer;
}

JsonValue SpanRecorder::ToJson() const {
  JsonValue list = JsonValue::Array();
  for (const Span& span : spans_) {
    JsonValue row = JsonValue::Object();
    row.Set("name", JsonValue::Str(span.name));
    row.Set("start_s", JsonValue::Number(span.start_s));
    row.Set("end_s", JsonValue::Number(span.end_s));
    row.Set("parent", JsonValue::Int(span.parent));
    row.Set("run_id", JsonValue::Int(span.run_id));
    list.Append(std::move(row));
  }
  JsonValue self = JsonValue::Object();
  for (const auto& [layer, seconds] : SelfSecondsByLayer()) {
    self.Set(layer, JsonValue::Number(seconds));
  }
  JsonValue out = JsonValue::Object();
  out.Set("spans", std::move(list));
  out.Set("self_s_by_layer", std::move(self));
  return out;
}

}  // namespace perfbench
