// Exact-bit pins of Algorithm 1's winners on a cold-mix of plan requests:
// the six builtin models plus two GPT2-<N>B sizes, PP and DP, every policy
// mode, microbatch caps 4/6/8 and capacity fractions 0.80-0.90. Each request
// is profiled exactly as serve::PlanService profiles it and searched at 1 and
// 4 threads; the winner tuple, its policy table, its estimated iteration time
// (compared with ==, not within ULPs) and its traffic must all match the
// values recorded before the estimator's pack-time memo and the CSR
// dependency index went in.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/json.h"
#include "core/search.h"
#include "model/models.h"
#include "profile/profiler.h"
#include "serve/wire.h"

namespace harmony {
namespace {

using core::HarmonyMode;
using core::PolicyMode;

struct Golden {
  const char* model;
  HarmonyMode mode;
  int minibatch;
  PolicyMode policy;
  int u_max;
  double capacity_fraction;
  // Pinned winner.
  int u_fwd;
  int u_bwd;
  int fwd_packs;
  int bwd_packs;
  uint64_t packs_hash;  // FNV-1a over PacksString()
  const char* policy_table;
  double iteration_time;
  Bytes swap_bytes;
  Bytes p2p_bytes;
};

std::string PacksString(const core::Configuration& c) {
  std::string s = "F";
  for (const core::Pack& p : c.fwd_packs) {
    s += " " + std::to_string(p.lo) + "-" + std::to_string(p.hi);
  }
  s += " B";
  for (const core::Pack& p : c.bwd_packs) {
    s += " " + std::to_string(p.lo) + "-" + std::to_string(p.hi);
  }
  return s;
}

core::SearchResult SearchFor(const Golden& g, int num_threads) {
  serve::PlanRequest request;
  request.model = serve::ModelSpec::FromName(g.model).value();
  const model::SequentialModel seq =
      model::Sequentialize(serve::BuildModel(request.model).value());
  const profile::ProfileDb db =
      profile::Profiler(request.machine.PlanningGpu(), profile::ProfilerOptions{})
          .Profile(seq);
  core::SearchOptions options;
  options.policy_mode = g.policy;
  options.u_fwd_max = options.u_bwd_max = g.u_max;
  options.capacity_fraction = g.capacity_fraction;
  options.num_threads = num_threads;
  auto found = core::SearchConfiguration(db, request.machine, g.mode,
                                         g.minibatch, request.flags, options);
  EXPECT_TRUE(found.ok()) << g.model << ": " << found.status();
  return found.ok() ? found.value() : core::SearchResult{};
}

constexpr HarmonyMode kPP = HarmonyMode::kPipelineParallel;
constexpr HarmonyMode kDP = HarmonyMode::kDataParallel;

const Golden kGoldens[] = {
    {"BERT-Large", kPP, 32, PolicyMode::kLegacy, 4, 0.85,
     4, 2, 8, 4, 0xdfe46d667f2f7986ull, "r0-27", 2.947945741868605, 3983597584, 738197504},
    {"BERT96", kDP, 64, PolicyMode::kRecomputeAll, 6, 0.80,
     6, 4, 1, 3, 0x0d2cda317d8414dbull, "r0-99", 19.200512449773512, 53421604928, 0},
    {"GPT2", kPP, 64, PolicyMode::kSwapAll, 8, 0.87,
     4, 2, 4, 4, 0xcfe91458e73da49eull, "s0-51", 75.630755374120966, 846256684288, 2936012800},
    {"GPT2-Medium", kDP, 32, PolicyMode::kHybridGreedy, 4, 0.83,
     1, 2, 0, 1, 0xa98640d7e2038a8dull, "s0,r1-25,s26,r27", 5.7593091450998113, 11354341376, 0},
    {"VGG416", kPP, 16, PolicyMode::kSweep, 6, 0.90,
     4, 4, 4, 4, 0x3be815b5727ad3f6ull, "r0-82,s83-162,r163,s164-286,r287,s288-410,r411,k412,s413-416", 9.4931633251339846, 19325002816, 385351680},
    {"ResNet1K", kDP, 64, PolicyMode::kLegacy, 8, 0.8123,
     8, 8, 1, 2, 0x401b733b0d629f0cull, "r0-1029", 3.1360609549385705, 18451946752, 0},
    {"GPT2-2.50B", kPP, 32, PolicyMode::kHybridGreedy, 6, 0.86,
     6, 6, 16, 12, 0xb2ae2c726c1ab5eeull, "s0,r1-49,s50,r51", 48.298699649966039, 37255105792, 7474249728},
    {"GPT2-5.25B", kDP, 16, PolicyMode::kRecomputeAll, 4, 0.89,
     4, 4, 3, 15, 0xdda44b3dc3e36874ull, "r0-51", 43.423777297049945, 259305049088, 0},
    {"BERT96", kPP, 16, PolicyMode::kSweep, 4, 0.84,
     4, 1, 4, 4, 0x13b91dc582539b70ull, "s0,r1-96,s97-99", 6.7665313189266705, 13825654800, 234881024},
    {"GPT2", kDP, 32, PolicyMode::kLegacy, 6, 0.88,
     4, 4, 1, 6, 0x757ea51e4a0233b7ull, "r0-51", 25.982456283296642, 73491891200, 0},
    {"GPT2-3.75B", kPP, 64, PolicyMode::kSwapAll, 8, 0.81,
     8, 8, 16, 25, 0xa9cd05bd3ec87367ull, "s0-51", 146.22240546497972, 1721930815488, 26843545600},
    {"ResNet1K", kPP, 32, PolicyMode::kHybridGreedy, 4, 0.85,
     4, 4, 4, 4, 0x96fe7c7084175bb6ull, "r0-818,s819-820,r821-1027,s1028-1029", 2.6216207999585426, 5163755328, 276168704},
};

TEST(SearchGolden, ColdMixWinnersAreBitIdentical) {
  for (const Golden& g : kGoldens) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(g.model) + " " + core::HarmonyModeName(g.mode) +
                   " " + core::PolicyModeName(g.policy) + " @" +
                   std::to_string(threads) + "T");
      const core::SearchResult r = SearchFor(g, threads);
      EXPECT_EQ(r.best.u_fwd, g.u_fwd);
      EXPECT_EQ(r.best.u_bwd, g.u_bwd);
      EXPECT_EQ(static_cast<int>(r.best.fwd_packs.size()), g.fwd_packs);
      EXPECT_EQ(static_cast<int>(r.best.bwd_packs.size()), g.bwd_packs);
      EXPECT_EQ(json::Fnv1a(PacksString(r.best)), g.packs_hash)
          << PacksString(r.best);
      EXPECT_EQ(r.best.policy.ToString(), g.policy_table);
      EXPECT_EQ(r.best_estimate.iteration_time, g.iteration_time);
      EXPECT_EQ(r.best_estimate.swap_bytes, g.swap_bytes);
      EXPECT_EQ(r.best_estimate.p2p_bytes, g.p2p_bytes);
    }
  }
}

}  // namespace
}  // namespace harmony
