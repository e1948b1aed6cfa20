#include "runtime/runtime.h"

#include "runtime/executor.h"
#include "runtime/step_compiler.h"
#include "trace/metrics_sink.h"
#include "trace/trace.h"

namespace harmony::runtime {

Runtime::Runtime(hw::MachineSpec machine, const model::SequentialModel& model)
    : machine_(std::move(machine)), model_(model) {}

Result<RunMetrics> Runtime::Execute(const core::TaskGraph& graph,
                                    const RuntimeOptions& options) const {
  // The execution pipeline: compile the task graph to a step program, then
  // drive it on the simulator with every observation routed over the trace
  // bus. MetricsSink is always attached — RunMetrics is folded from its
  // events rather than counted ad hoc.
  trace::TraceBus bus;
  trace::MetricsSink metrics(graph.num_devices);
  bus.AddSink(&metrics);
  for (trace::TraceSink* sink : options.trace_sinks) {
    if (sink != nullptr) bus.AddSink(sink);
  }

  StepCompiler compiler(machine_, model_, graph, options.optimizer);
  Executor executor(machine_, graph, options, compiler.Compile(), &bus,
                    &metrics);
  return executor.Run();
}

}  // namespace harmony::runtime
