#ifndef PERFBENCH_GENERATORS_H_
#define PERFBENCH_GENERATORS_H_

// Seeded input generators. The daemons and the runtime only ever see what
// these produce; README.md records why each workload looks the way it does.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/wire.h"

namespace perfbench {

/// warm_zipf's catalog: `n` plan requests with pairwise-distinct
/// fingerprints. Entry i's model, mode and minibatch are fixed by i (64
/// entries cover every combination once, and rank i of the Zipf draw always
/// hits the same kind of request, whatever the seed); the seed picks the
/// GPT2-<N>B sizes and which entries get which policy mode and microbatch
/// cap (every catalog has the same number of each).
std::vector<harmony::serve::PlanRequest> WarmCatalog(uint64_t seed, int n);

/// cold_tier's write streams, one per tier member. Stream d holds requests
/// whose ring owner is members[d]; no fingerprint appears twice across all
/// streams. Each stream walks the same fixed cycle of (model, mode) strata,
/// so every member sees the same mix of search costs; the seed picks the
/// custom model size, minibatch, policy, microbatch caps and capacity
/// fraction inside each stratum.
std::vector<std::vector<harmony::serve::PlanRequest>> ColdStreams(
    uint64_t seed, const std::vector<std::string>& members, int per_member);

/// One train_iters scenario: a model and a training scheme at minibatch 64.
struct Scenario {
  std::string model;   // BERT96, GPT2, VGG416, ResNet1K
  std::string scheme;  // "harmony-pp", "harmony-dp", "dp-swap", "gp-swap"
  bool harmony() const { return scheme.rfind("harmony", 0) == 0; }
  std::string Name() const { return model + "/" + scheme; }
};

/// Every model x scheme pair, in a seeded order (the round-robin order of
/// the timed loop). Set-up drops the pairs a scheme cannot fit.
std::vector<Scenario> TrainScenarios(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATORS_H_
