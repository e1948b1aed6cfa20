#include "adapt/planner.h"

#include <chrono>
#include <utility>

#include "common/cancel.h"
#include "core/scheduler.h"
#include "model/layer.h"

namespace harmony::adapt {

namespace {

PlanOutcome FromResponse(const serve::PlanResponse& r) {
  PlanOutcome out;
  out.config = r.config;
  out.estimate = r.estimate;
  out.search_seconds = r.search_seconds;
  return out;
}

}  // namespace

Result<PlanOutcome> LocalSearchPlanner::Plan(const serve::PlanRequest& request) {
  auto graph = serve::BuildModel(request.model);
  HARMONY_RETURN_IF_ERROR(graph.status());
  const model::SequentialModel model = model::Sequentialize(graph.value());

  common::CancelToken deadline;
  core::SearchOptions options = request.options;
  if (deadline_seconds_ > 0) {
    deadline.SetDeadlineAfter(std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(deadline_seconds_)));
    options.cancel = &deadline;
  }

  const core::Scheduler scheduler(request.machine);
  auto outcome = scheduler.Schedule(model, request.mode, request.minibatch,
                                    request.flags, options);
  HARMONY_RETURN_IF_ERROR(outcome.status());
  PlanOutcome out;
  out.config = outcome.value().search.best;
  out.estimate = outcome.value().search.best_estimate;
  out.search_seconds = outcome.value().search.search_wall_seconds;
  return out;
}

Result<PlanOutcome> TierPlanner::Plan(const serve::PlanRequest& request) {
  auto response = tier_->Plan(request);
  HARMONY_RETURN_IF_ERROR(response.status());
  HARMONY_RETURN_IF_ERROR(response.value().status);
  return FromResponse(response.value());
}

}  // namespace harmony::adapt
