#ifndef HARMONY_COMMON_BACKOFF_H_
#define HARMONY_COMMON_BACKOFF_H_

#include <algorithm>

#include "common/rng.h"
#include "common/units.h"

namespace harmony::common {

/// Jittered exponential backoff, shared by every retry site in the repo: the
/// fault layer's transfer/alloc retries (simulated time) and the cluster
/// tier's plan and peer-fetch retries (wall-clock time). The delay for
/// attempt k is `initial * multiplier^k`, capped at `max_delay`, then
/// scattered by full jitter: uniform in [(1-jitter)*d, d]. Jitter draws come
/// from an explicitly seeded Rng so simulated retries replay bit-identically
/// from the chaos seed; pass nullptr to skip jitter entirely.
struct BackoffPolicy {
  TimeSec initial = 1e-3;
  TimeSec max_delay = 1.0;
  double multiplier = 2.0;
  double jitter = 0.5;  // fraction of the delay randomized away, in [0, 1]

  /// Delay before retry number `attempt` (0 = first retry).
  TimeSec DelayFor(int attempt, Rng* rng) const {
    TimeSec d = initial;
    for (int i = 0; i < attempt && d < max_delay; ++i) d *= multiplier;
    d = std::min(d, max_delay);
    if (rng != nullptr && jitter > 0.0) {
      d *= 1.0 - jitter * rng->NextDouble();
    }
    return d;
  }
};

/// Shared retry policies. Retry sites across layers used to duplicate these
/// constants inline; naming them here keeps the tier client, the peer fetch,
/// and any future retrier honest about using the same shape.
///
/// Wall-clock plan retries (cluster::TierClient): start at 50ms — a shed
/// server's retry-after hints are in this range — and cap at 2s so a
/// bounded retry budget stays interactive.
inline constexpr BackoffPolicy kPlanRetryBackoff{/*initial=*/0.05,
                                                 /*max_delay=*/2.0,
                                                 /*multiplier=*/2.0,
                                                 /*jitter=*/0.5};

/// Peer-fetch retries inside the cluster tier: tighter (20ms..500ms) because
/// a peer fill is an optimization — if the peer dawdles, searching locally is
/// the better spend.
inline constexpr BackoffPolicy kPeerFetchBackoff{/*initial=*/0.02,
                                                 /*max_delay=*/0.5,
                                                 /*multiplier=*/2.0,
                                                 /*jitter=*/0.5};
/// Retries a peer fetch makes after its first attempt fails.
inline constexpr int kPeerFetchRetries = 2;

}  // namespace harmony::common

#endif  // HARMONY_COMMON_BACKOFF_H_
