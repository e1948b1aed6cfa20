#include <gtest/gtest.h>

#include "tensor/train.h"

namespace harmony::tensor {
namespace {

using core::Pack;

TrainOptions DefaultOptions() {
  TrainOptions o;
  o.iterations = 8;
  o.minibatch = 16;
  o.microbatch = 4;
  o.fwd_microbatch = 8;
  o.packs = {Pack{0, 2}, Pack{3, 5}, Pack{6, 7}};
  return o;
}

TEST(Train, LossesDecrease) {
  TrainOptions o = DefaultOptions();
  o.iterations = 30;
  const auto r = Train(TinyModelConfig{}, ExecutionScheme::kBaseline1Gpu, o);
  double early = 0, late = 0;
  for (int i = 0; i < 5; ++i) early += r.losses[i];
  for (int i = 25; i < 30; ++i) late += r.losses[i];
  EXPECT_LT(late, early);
  EXPECT_GT(r.eval_accuracy, 0.75);  // learnable synthetic task
}

TEST(Train, HarmonyMatchesBaselineBitExactly) {
  // The Fig 12 / Table 3 claim: Harmony's reordered execution (grouping,
  // packing, recomputation, jit updates) leaves every minibatch loss
  // bit-identical to the baseline.
  const TrainOptions o = DefaultOptions();
  const auto base = Train(TinyModelConfig{}, ExecutionScheme::kBaseline1Gpu, o);
  const auto harmony = Train(TinyModelConfig{}, ExecutionScheme::kHarmony1Gpu, o);
  const auto pp = Train(TinyModelConfig{}, ExecutionScheme::kHarmonyPp, o);
  ASSERT_EQ(base.losses.size(), harmony.losses.size());
  for (size_t i = 0; i < base.losses.size(); ++i) {
    EXPECT_EQ(base.losses[i], harmony.losses[i]) << "iteration " << i;
    EXPECT_EQ(base.losses[i], pp.losses[i]) << "iteration " << i;
  }
  EXPECT_DOUBLE_EQ(base.eval_accuracy, harmony.eval_accuracy);
  EXPECT_DOUBLE_EQ(base.eval_accuracy, pp.eval_accuracy);
}

TEST(Train, DataParallelVariantsMatchEachOther) {
  // Table 3's DP column: Harmony DP matches baseline DP exactly (though both
  // may differ from the single-GPU runs in the last float digits, because
  // the reduction changes summation nesting).
  const TrainOptions o = DefaultOptions();
  const auto bdp = Train(TinyModelConfig{}, ExecutionScheme::kBaselineDp, o);
  const auto hdp = Train(TinyModelConfig{}, ExecutionScheme::kHarmonyDp, o);
  for (size_t i = 0; i < bdp.losses.size(); ++i) {
    EXPECT_EQ(bdp.losses[i], hdp.losses[i]) << "iteration " << i;
  }
  EXPECT_DOUBLE_EQ(bdp.eval_accuracy, hdp.eval_accuracy);
}

TEST(Train, SgdOptimizerAlsoMatches) {
  TrainOptions o = DefaultOptions();
  o.use_adam = false;
  o.lr = 0.05f;
  const auto base = Train(TinyModelConfig{}, ExecutionScheme::kBaseline1Gpu, o);
  const auto harmony = Train(TinyModelConfig{}, ExecutionScheme::kHarmony1Gpu, o);
  for (size_t i = 0; i < base.losses.size(); ++i) {
    EXPECT_EQ(base.losses[i], harmony.losses[i]);
  }
}

TEST(Train, CausalGptLikeModelMatches) {
  // The Fig 19 analogue: a GPT-style (causal) variant fine-tuned the same
  // way also matches exactly.
  TinyModelConfig mc;
  mc.causal = true;
  mc.classes = mc.vocab;  // LM-style wide head
  const TrainOptions o = DefaultOptions();
  const auto base = Train(mc, ExecutionScheme::kBaseline1Gpu, o);
  const auto harmony = Train(mc, ExecutionScheme::kHarmonyPp, o);
  for (size_t i = 0; i < base.losses.size(); ++i) {
    EXPECT_EQ(base.losses[i], harmony.losses[i]);
  }
}

// Property sweep: bit-exactness must hold for every packing / microbatch
// combination, including U_F != U_B and ragged splits.
struct MatchParam {
  int u_fwd, u_bwd, minibatch;
  core::PackList packs;
};

// Print the case by its fields: the default byte dump contains the pack
// vector's heap pointers, which change from build to build and so would make
// the test names differ from one listing to the next.
void PrintTo(const MatchParam& p, std::ostream* os) {
  *os << "uf" << p.u_fwd << " ub" << p.u_bwd << " mb" << p.minibatch << " "
      << core::PackListToString(p.packs);
}

class BitExactSweep : public ::testing::TestWithParam<MatchParam> {};

TEST_P(BitExactSweep, HarmonyEqualsBaseline) {
  const MatchParam p = GetParam();
  TrainOptions o;
  o.iterations = 4;
  o.minibatch = p.minibatch;
  o.microbatch = p.u_bwd;
  o.fwd_microbatch = p.u_fwd;
  o.packs = p.packs;
  const auto base = Train(TinyModelConfig{}, ExecutionScheme::kBaseline1Gpu, o);
  const auto harmony = Train(TinyModelConfig{}, ExecutionScheme::kHarmony1Gpu, o);
  for (size_t i = 0; i < base.losses.size(); ++i) {
    EXPECT_EQ(base.losses[i], harmony.losses[i]) << "iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BitExactSweep,
    ::testing::Values(
        // One pack (everything fused), U_F == U_B.
        MatchParam{4, 4, 16, {Pack{0, 7}}},
        // Per-layer packs.
        MatchParam{4, 4, 16,
                   {Pack{0, 0}, Pack{1, 1}, Pack{2, 2}, Pack{3, 3}, Pack{4, 4},
                    Pack{5, 5}, Pack{6, 6}, Pack{7, 7}}},
        // U_F != U_B with aligned pieces.
        MatchParam{8, 2, 16, {Pack{0, 3}, Pack{4, 7}}},
        // U_F < U_B.
        MatchParam{2, 8, 16, {Pack{0, 3}, Pack{4, 7}}},
        // Ragged microbatches (minibatch not divisible).
        MatchParam{3, 3, 13, {Pack{0, 4}, Pack{5, 7}}},
        // Uneven pack sizes.
        MatchParam{4, 2, 12, {Pack{0, 0}, Pack{1, 5}, Pack{6, 7}}}));

}  // namespace
}  // namespace harmony::tensor
