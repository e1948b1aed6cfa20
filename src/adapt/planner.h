#ifndef HARMONY_ADAPT_PLANNER_H_
#define HARMONY_ADAPT_PLANNER_H_

#include <string>

#include "cluster/cluster.h"
#include "common/status.h"
#include "core/config.h"
#include "core/estimator.h"
#include "serve/wire.h"

namespace harmony::adapt {

/// What a re-plan produced: the chosen configuration and the planner's
/// estimate of one iteration under it on the request's (degraded) machine.
struct PlanOutcome {
  core::Configuration config;
  core::Estimate estimate;
  double search_seconds = 0;
};

/// Where the adaptive runner gets a plan from. The request always carries
/// the full (possibly degraded, heterogeneous) MachineSpec — the wire format
/// round-trips the per-GPU overrides and link scale factors, so a remote
/// daemon plans on exactly the descriptor the health monitor synthesized,
/// and its cache fingerprints the degraded machine distinctly from the
/// nominal one.
class Planner {
 public:
  virtual ~Planner() = default;
  virtual Result<PlanOutcome> Plan(const serve::PlanRequest& request) = 0;
  virtual const char* name() const = 0;
};

/// Bounded in-process Algorithm 1 — the fallback that needs no daemon. The
/// deadline arms a CancelToken shared with the search, so a re-plan can
/// never wedge the training loop it is trying to rescue.
class LocalSearchPlanner : public Planner {
 public:
  explicit LocalSearchPlanner(TimeSec deadline_seconds = 0)
      : deadline_seconds_(deadline_seconds) {}

  Result<PlanOutcome> Plan(const serve::PlanRequest& request) override;
  const char* name() const override { return "local-search"; }

 private:
  TimeSec deadline_seconds_;
};

/// Daemon-backed planning through TierClient: owner-routed with failover
/// down the rendezvous ranking, load-shed replies backed off and restarted
/// daemons re-dialed. A single daemon is a one-member tier. The tier is
/// borrowed and must outlive the planner.
class TierPlanner : public Planner {
 public:
  explicit TierPlanner(cluster::TierClient* tier) : tier_(tier) {}

  Result<PlanOutcome> Plan(const serve::PlanRequest& request) override;
  const char* name() const override { return "tier"; }

 private:
  cluster::TierClient* tier_;
};

}  // namespace harmony::adapt

#endif  // HARMONY_ADAPT_PLANNER_H_
