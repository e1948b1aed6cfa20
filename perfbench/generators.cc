#include "generators.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "cluster/hash_ring.h"
#include "harness.h"

namespace perfbench {

using harmony::core::HarmonyMode;
using harmony::core::PolicyMode;
using harmony::serve::ModelSpec;
using harmony::serve::PlanRequest;

namespace {

const char* const kBuiltins[] = {"BERT-Large", "BERT96", "GPT2",
                                 "GPT2-Medium", "VGG416", "ResNet1K"};
constexpr int kModelSlots = 8;  // six builtins + two GPT2-<N>B slots

/// GPT2 scaled to a seeded size; the spelling ("GPT2-3.25B") is the name
/// harmony_plan and the wire format accept. Slot 6 draws from 2.00B..3.99B
/// and slot 7 from 4.00B..6.00B, so every catalog has one smaller and one
/// larger custom model.
ModelSpec CustomGpt2(int slot, Rng* rng) {
  const int hundredths = slot == 6 ? 200 + rng->Below(200) : 400 + rng->Below(201);
  char name[32];
  std::snprintf(name, sizeof(name), "GPT2-%d.%02dB", hundredths / 100,
                hundredths % 100);
  return ModelSpec::FromName(name).value();
}

ModelSpec SlotModel(int slot, Rng* rng) {
  if (slot < 6) return ModelSpec::FromName(kBuiltins[slot]).value();
  return CustomGpt2(slot, rng);
}

}  // namespace

std::vector<PlanRequest> WarmCatalog(uint64_t seed, int n) {
  static const PolicyMode kPolicies[] = {
      PolicyMode::kLegacy, PolicyMode::kRecomputeAll, PolicyMode::kSwapAll,
      PolicyMode::kHybridGreedy, PolicyMode::kSweep};
  static const int kMinibatches[] = {16, 32, 64, 128};
  Rng rng(seed ^ 0x5741524d43415441ULL);
  // Policy modes and microbatch caps differ in search cost several-fold, so
  // every catalog gets the same number of each (cycled, then shuffled by
  // the seed): set-up time then depends on the seed far less.
  std::vector<int> knobs(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) knobs[static_cast<size_t>(i)] = i % 10;
  for (int i = n - 1; i > 0; --i) {
    std::swap(knobs[static_cast<size_t>(i)], knobs[static_cast<size_t>(rng.Below(i + 1))]);
  }
  std::unordered_set<uint64_t> seen;
  std::vector<PlanRequest> catalog;
  for (int i = 0; i < n; ++i) {
    int knob = knobs[static_cast<size_t>(i)];
    for (;;) {
      PlanRequest r;
      r.model = SlotModel(i % kModelSlots, &rng);
      r.mode = (i / kModelSlots) % 2 == 0 ? HarmonyMode::kPipelineParallel
                                          : HarmonyMode::kDataParallel;
      r.minibatch = kMinibatches[(i / (2 * kModelSlots)) % 4];
      r.options.policy_mode = kPolicies[knob % 5];
      r.options.u_fwd_max = r.options.u_bwd_max = 4 + 4 * (knob / 5);
      knob = rng.Below(10);  // a repeat (never seen so far) redraws
      if (seen.insert(harmony::serve::RequestFingerprint(r)).second) {
        catalog.push_back(std::move(r));
        break;
      }
    }
  }
  return catalog;
}

std::vector<std::vector<PlanRequest>> ColdStreams(
    uint64_t seed, const std::vector<std::string>& members, int per_member) {
  // Sweep mode triples the candidate count; it stays out of the cold mix so
  // that per-write search cost is comparable across strata.
  static const PolicyMode kPolicies[] = {
      PolicyMode::kLegacy, PolicyMode::kRecomputeAll, PolicyMode::kSwapAll,
      PolicyMode::kHybridGreedy};
  static const int kMinibatches[] = {16, 32, 64};
  harmony::cluster::HashRing ring;
  for (const std::string& m : members) ring.AddNode(m);

  std::unordered_set<uint64_t> seen;
  std::vector<std::vector<PlanRequest>> streams(members.size());
  for (size_t d = 0; d < members.size(); ++d) {
    Rng rng(seed ^ (0x434f4c4400000000ULL + d));
    int stratum = 0;
    while (static_cast<int>(streams[d].size()) < per_member) {
      PlanRequest r;
      r.model = SlotModel(stratum % kModelSlots, &rng);
      r.mode = (stratum / kModelSlots) % 2 == 0
                   ? HarmonyMode::kPipelineParallel
                   : HarmonyMode::kDataParallel;
      r.minibatch = kMinibatches[rng.Below(3)];
      r.options.policy_mode = kPolicies[rng.Below(4)];
      r.options.u_fwd_max = r.options.u_bwd_max = 4 + 2 * rng.Below(3);
      r.options.capacity_fraction = 0.80 + 0.0001 * rng.Below(1000);
      const uint64_t fp = harmony::serve::RequestFingerprint(r);
      if (ring.OwnerOf(fp) != members[d] || !seen.insert(fp).second) continue;
      streams[d].push_back(std::move(r));
      stratum = (stratum + 1) % (2 * kModelSlots);
    }
  }
  return streams;
}

std::vector<Scenario> TrainScenarios(uint64_t seed) {
  std::vector<Scenario> out;
  for (const char* model : {"BERT96", "GPT2", "VGG416", "ResNet1K"}) {
    for (const char* scheme : {"harmony-pp", "harmony-dp", "dp-swap", "gp-swap"}) {
      out.push_back({model, scheme});
    }
  }
  Rng rng(seed ^ 0x545241494e000000ULL);
  for (size_t i = out.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(out[i - 1], out[static_cast<size_t>(rng.Below(static_cast<int>(i)))]);
  }
  return out;
}

}  // namespace perfbench
