#ifndef HARMONY_TRACE_FILTER_SINK_H_
#define HARMONY_TRACE_FILTER_SINK_H_

#include <cstdio>
#include <string>

#include "trace/trace.h"

namespace harmony::trace {

/// Per-tensor diagnostic tracing: prints every state transition of one tensor
/// to `out` (pass it in RuntimeOptions::trace_sinks, as harmony_plan's
/// --trace-tensor does).
class FilterSink : public TraceSink {
 public:
  /// `filter` is a tensor key string, e.g. "A[L5,b2,o0]".
  explicit FilterSink(std::string filter, FILE* out = stderr)
      : filter_(std::move(filter)), out_(out) {}

  bool WantsDetail() const override { return true; }
  bool WantsTensorEvents() const override { return true; }

  void OnEvent(const Event& event) override;

  int64_t matches() const { return matches_; }

 private:
  std::string filter_;
  FILE* out_;
  int64_t matches_ = 0;
};

}  // namespace harmony::trace

#endif  // HARMONY_TRACE_FILTER_SINK_H_
