#include "trace/filter_sink.h"

namespace harmony::trace {

void FilterSink::OnEvent(const Event& e) {
  if (e.kind != EventKind::kTensor || e.name != filter_) return;
  ++matches_;
  std::fprintf(out_, "[runtime-trace] %s %s d%d\n", e.name.c_str(), e.detail,
               e.device);
}

}  // namespace harmony::trace
