#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/packing.h"
#include "core/task_graph.h"
#include "model/models.h"
#include "profile/profiler.h"

namespace harmony::core {
namespace {

profile::ProfileDb MakeDb(int blocks = 16) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const profile::Profiler profiler(machine.gpu, profile::ProfilerOptions{});
  return profiler.Profile(
      model::Sequentialize(model::TinyTransformer(blocks, 512, 128)));
}

Configuration MakeConfig(const profile::ProfileDb& db, int u_fwd, int u_bwd,
                         Bytes capacity = MiB(512)) {
  PackingOptions opts;
  opts.capacity = capacity;
  Configuration c;
  c.u_fwd = u_fwd;
  c.u_bwd = u_bwd;
  c.bwd_packs = BackwardPacks(u_bwd, db, opts).value();
  opts.min_packs = 4;  // several forward packs so pipelines are non-trivial
  c.fwd_packs = ForwardPacks(u_fwd, c.bwd_packs, db, opts).value();
  c.policy = PolicyTable::Uniform(db.num_layers(), StashPolicy::kRecompute);
  return c;
}

TEST(SplitMicrobatches, EvenAndRagged) {
  const auto even = SplitMicrobatches(8, 4);
  ASSERT_EQ(even.size(), 2u);
  EXPECT_EQ(even[0].begin, 0);
  EXPECT_EQ(even[1].begin, 4);
  const auto ragged = SplitMicrobatches(10, 4);
  ASSERT_EQ(ragged.size(), 3u);
  EXPECT_EQ(ragged[2].size, 2);
}

TEST(SplitMicrobatches, MicrobatchLargerThanMinibatch) {
  // u > total collapses to one piece covering the whole minibatch.
  const auto pieces = SplitMicrobatches(3, 8);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].begin, 0);
  EXPECT_EQ(pieces[0].size, 3);
}

TEST(SplitMicrobatches, LastPieceCarriesRemainder) {
  const auto pieces = SplitMicrobatches(13, 5);
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0].size, 5);
  EXPECT_EQ(pieces[1].size, 5);
  EXPECT_EQ(pieces[2].begin, 10);
  EXPECT_EQ(pieces[2].size, 3);
  int total = 0;
  for (const MbPiece& p : pieces) total += p.size;
  EXPECT_EQ(total, 13);
}

TEST(SplitMicrobatchesDeathTest, ZeroMicrobatchIsAnInvariantViolation) {
  // u == 0 is a caller bug (division by zero downstream), guarded by a CHECK
  // rather than silently clamped.
  EXPECT_DEATH(SplitMicrobatches(8, 0), "Check failed");
  EXPECT_DEATH(SplitMicrobatches(0, 4), "Check failed");
}

TEST(MbPiece, Overlaps) {
  const MbPiece a{0, 4}, b{4, 4}, c{2, 4};
  EXPECT_FALSE(a.Overlaps(b));
  EXPECT_TRUE(a.Overlaps(c));
  EXPECT_TRUE(c.Overlaps(b));
}

TEST(MbPiece, AdjacentPiecesDoNotOverlap) {
  // [0,2) and [2,5) touch at 2 but share no sample; [4,6) does intersect.
  const MbPiece a{0, 2}, b{2, 3}, c{4, 2};
  EXPECT_FALSE(a.Overlaps(b));
  EXPECT_FALSE(b.Overlaps(a));
  EXPECT_TRUE(b.Overlaps(c));
  // A piece always overlaps itself.
  EXPECT_TRUE(b.Overlaps(b));
}

class TaskGraphTest : public ::testing::Test {
 protected:
  TaskGraphTest() : db_(MakeDb()) {}
  profile::ProfileDb db_;
};

TEST_F(TaskGraphTest, WrapAroundBinding) {
  // Algorithm 3: Task(P_FB[i]) -> GPU[i mod N].
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  int slot = 0;
  for (const Task& t : g.tasks) {
    if (t.type == TaskType::kUpdate) continue;
    EXPECT_EQ(t.device, slot % 4) << "task " << t.id;
    ++slot;
  }
  EXPECT_EQ(slot, static_cast<int>(c.fwd_packs.size() + c.bwd_packs.size()));
}

TEST_F(TaskGraphTest, FusedTaskProperties) {
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  int fused_count = 0;
  for (const Task& t : g.tasks) {
    if (!t.fused_forward) continue;
    ++fused_count;
    EXPECT_EQ(t.type, TaskType::kBackward);
    EXPECT_EQ(t.pack, c.bwd_packs.back());
    EXPECT_FALSE(t.reads_checkpoint); // input streams in from the last F task
  }
  EXPECT_EQ(fused_count, 1);
}

TEST_F(TaskGraphTest, CheckpointBoundariesMatchBackwardPackInputs) {
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  std::set<int> expected;
  for (size_t j = 0; j + 1 < c.bwd_packs.size(); ++j) {  // fused pack excluded
    if (c.bwd_packs[j].lo > 0) expected.insert(c.bwd_packs[j].lo);
  }
  std::set<int> saved;
  for (const Task& t : g.tasks) {
    for (int b : t.checkpoint_boundaries) {
      EXPECT_EQ(t.type, TaskType::kForward);
      EXPECT_GE(b - 1, t.pack.lo);
      EXPECT_LE(b - 1, t.pack.hi);
      saved.insert(b);
    }
  }
  EXPECT_EQ(saved, expected);
}

TEST_F(TaskGraphTest, GroupsCoverWholeMinibatch) {
  const Configuration c = MakeConfig(db_, 3, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 10, OptimizationFlags{}, db_);
  for (const Task& t : g.tasks) {
    if (t.type == TaskType::kUpdate) continue;
    int total = 0;
    for (const MbPiece& p : t.group) total += p.size;
    EXPECT_EQ(total, 10);
    const int u = t.type == TaskType::kForward && !t.fused_forward ? 3 : 2;
    EXPECT_EQ(t.group.front().size, u);
  }
}

TEST_F(TaskGraphTest, DataParallelReplication) {
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kDataParallel, 4, 16, OptimizationFlags{}, db_);
  EXPECT_EQ(g.num_replicas, 4);
  EXPECT_TRUE(g.grad_reduce_via_host);
  for (const Task& t : g.tasks) {
    if (t.type == TaskType::kUpdate) {
      EXPECT_EQ(t.replica, -1);  // one master update per pack
      EXPECT_TRUE(t.on_cpu);
    } else {
      EXPECT_EQ(t.device, t.replica);  // each replica owns one GPU
      int total = 0;
      for (const MbPiece& p : t.group) total += p.size;
      EXPECT_EQ(total, 4);  // 16 / 4 replicas
    }
  }
}

TEST_F(TaskGraphTest, UpdateTaskPerBackwardPack) {
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  int updates = 0;
  for (const Task& t : g.tasks) updates += t.type == TaskType::kUpdate;
  EXPECT_EQ(updates, static_cast<int>(c.bwd_packs.size()));
}

TEST_F(TaskGraphTest, CpuOffloadRoutesUpdatesToCpuOrder) {
  const Configuration c = MakeConfig(db_, 2, 2);
  OptimizationFlags flags;
  flags.cpu_optimizer = true;
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, flags, db_);
  int cpu_updates = 0;
  for (const auto& order : g.cpu_order) cpu_updates += order.size();
  EXPECT_EQ(cpu_updates, static_cast<int>(c.bwd_packs.size()));

  flags.cpu_optimizer = false;
  const TaskGraph g2 = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, flags, db_);
  for (const auto& order : g2.cpu_order) EXPECT_TRUE(order.empty());
}

TEST_F(TaskGraphTest, JitComputeOffUnfusesLastPack) {
  const Configuration c = MakeConfig(db_, 2, 2);
  OptimizationFlags flags;
  flags.jit_compute = false;
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, flags, db_);
  int fwd_layers = 0;
  for (const Task& t : g.tasks) {
    EXPECT_FALSE(t.fused_forward);
    if (t.type == TaskType::kForward) fwd_layers += t.pack.num_layers();
  }
  EXPECT_EQ(fwd_layers, g.num_layers);  // forward now covers everything
}

TEST_F(TaskGraphTest, NoRecomputeLowersToKeepEverywhere) {
  Configuration c = MakeConfig(db_, 2, 2);
  c.policy = PolicyTable::Uniform(db_.num_layers(), StashPolicy::kKeep);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  EXPECT_EQ(g.stash_policy, c.policy);
  for (const Task& t : g.tasks) {
    if (t.type == TaskType::kBackward && !t.fused_forward) {
      EXPECT_FALSE(t.reads_checkpoint);
    }
    EXPECT_TRUE(t.checkpoint_boundaries.empty());
  }
}

TEST_F(TaskGraphTest, ExplicitPolicyTableLowersCheckpointsPerLayer) {
  // A deeper model forces >= 3 backward packs at the default capacity so an
  // interior (non-first, non-fused) pack exists.
  const profile::ProfileDb db = MakeDb(48);
  const Configuration base = MakeConfig(db, 2, 2);
  const int R = db.num_layers();

  // An all-recompute table checkpoints the input of every backward pack
  // except the first (the data loader's) and the fused last one.
  ASSERT_TRUE(base.policy.IsUniform(StashPolicy::kRecompute));
  const TaskGraph remat = GenerateHarmonyTaskGraph(
      base, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db);
  std::set<int> remat_boundaries;
  for (const Task& t : remat.tasks) {
    for (int b : t.checkpoint_boundaries) remat_boundaries.insert(b);
  }
  std::set<int> interior;
  for (size_t j = 1; j + 1 < base.bwd_packs.size(); ++j) {
    interior.insert(base.bwd_packs[j].lo);
  }
  EXPECT_EQ(remat_boundaries, interior);

  // A mixed table checkpoints only the boundaries of recompute packs: turn
  // one interior backward pack to kSwap and its checkpoint must vanish.
  ASSERT_GE(base.bwd_packs.size(), 3u);
  const Pack swapped = base.bwd_packs[1];
  ASSERT_GT(swapped.lo, 0);
  Configuration mixed = base;
  mixed.policy = PolicyTable::Uniform(R, StashPolicy::kRecompute);
  for (int l = swapped.lo; l <= swapped.hi; ++l) {
    mixed.policy.Set(l, StashPolicy::kSwap);
  }
  const TaskGraph mg = GenerateHarmonyTaskGraph(
      mixed, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db);
  std::set<int> boundaries;
  for (const Task& t : mg.tasks) {
    for (int b : t.checkpoint_boundaries) boundaries.insert(b);
    if (t.type == TaskType::kBackward && t.pack == swapped) {
      EXPECT_FALSE(t.reads_checkpoint);
    }
  }
  EXPECT_EQ(boundaries.count(swapped.lo), 0u);
  ValidateTaskGraph(mg);
}

TEST_F(TaskGraphTest, GroupingOffSplitsTasksMicrobatchMajor) {
  const Configuration c = MakeConfig(db_, 2, 2);
  OptimizationFlags flags;
  flags.input_batch_grouping = false;
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, flags, db_);
  for (const Task& t : g.tasks) {
    if (t.type != TaskType::kUpdate) {
      EXPECT_EQ(t.group.size(), 1u);
    }
  }
  // Per device, piece begins must be non-decreasing (microbatch-major).
  for (const auto& order : g.device_order) {
    int prev_begin = -1;
    for (int id : order) {
      const Task& t = g.task(id);
      if (t.type == TaskType::kUpdate) continue;
      EXPECT_GE(t.group.front().begin, prev_begin);
      prev_begin = t.group.front().begin;
    }
  }
}

TEST_F(TaskGraphTest, DepResolverActivationChain) {
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  const DepResolver deps(g);
  // The second forward task's input boundary is produced by the first.
  const Task* second = nullptr;
  for (const Task& t : g.tasks) {
    if (t.type == TaskType::kForward && t.pack.lo > 0) {
      if (!second || t.pack.lo < second->pack.lo) second = &t;
    }
  }
  ASSERT_NE(second, nullptr);
  std::vector<std::pair<int, int>> producers;
  deps.AppendProducers(DepResolver::Input::kActivation, second->pack.lo,
                       second->group.front(), 0, &producers);
  ASSERT_EQ(producers.size(), 1u);
  EXPECT_EQ(g.task(producers[0].first).pack.hi + 1, second->pack.lo);
}

TEST_F(TaskGraphTest, DepResolverCrossGranularityOverlap) {
  const Configuration c = MakeConfig(db_, 4, 2);  // U_F=4, U_B=2
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  const DepResolver deps(g);
  const Task* fused = nullptr;
  for (const Task& t : g.tasks) {
    if (t.fused_forward) fused = &t;
  }
  ASSERT_NE(fused, nullptr);
  // Each U_B=2 piece overlaps exactly one U_F=4 producer piece.
  for (const MbPiece& piece : fused->group) {
    std::vector<std::pair<int, int>> producers;
    deps.AppendProducers(DepResolver::Input::kActivation, fused->pack.lo, piece,
                         0, &producers);
    ASSERT_EQ(producers.size(), 1u);
    const Task& p = g.task(producers[0].first);
    EXPECT_TRUE(p.group[producers[0].second].Overlaps(piece));
  }
}

TEST_F(TaskGraphTest, GradientChainLinksBackwardTasks) {
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, db_);
  const DepResolver deps(g);
  for (const Task& t : g.tasks) {
    if (t.type != TaskType::kBackward || t.pack.hi == g.num_layers - 1) continue;
    std::vector<std::pair<int, int>> producers;
    deps.AppendProducers(DepResolver::Input::kGradient, t.pack.hi + 1,
                         t.group.front(), 0, &producers);
    ASSERT_FALSE(producers.empty()) << "backward task " << t.id;
    EXPECT_EQ(g.task(producers[0].first).pack.lo, t.pack.hi + 1);
  }
}

TEST_F(TaskGraphTest, BackwardTasksForPackFindsAllReplicas) {
  const Configuration c = MakeConfig(db_, 2, 2);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, HarmonyMode::kDataParallel, 4, 16, OptimizationFlags{}, db_);
  const DepResolver deps(g);
  std::vector<int> tasks;
  deps.BackwardTasksForPack(c.bwd_packs[0], -1, &tasks);
  EXPECT_EQ(tasks.size(), 4u);  // one per replica
}

// DepResolver's CSR index against brute force: for every F/B unit of every
// graph, the producer query must return exactly the (task, piece) pairs a
// scan over all tasks and pieces finds, in the same order (ascending task,
// then piece); BackwardTasksForPack and AllBackwardTasks must match linear
// scans over the backward tasks.
struct ResolverParam {
  const char* model;
  int minibatch;
  bool dp;
};

// Print the case by its fields: the default byte dump contains the address
// of the model name, which changes with address-space randomization and so
// would make the test names differ from one listing to the next.
void PrintTo(const ResolverParam& p, std::ostream* os) {
  *os << p.model << " mb" << p.minibatch << (p.dp ? " dp" : " pp");
}

class DepResolverProperty : public ::testing::TestWithParam<ResolverParam> {};

std::vector<std::pair<int, int>> BruteForceProducers(
    const TaskGraph& g, DepResolver::Input input, int boundary,
    const MbPiece& piece, int replica) {
  std::vector<std::pair<int, int>> out;
  for (const Task& t : g.tasks) {
    if (t.replica != replica || t.type == TaskType::kUpdate) continue;
    bool produces = false;
    if (input == DepResolver::Input::kActivation) {
      const bool ckpt = std::find(t.checkpoint_boundaries.begin(),
                                  t.checkpoint_boundaries.end(),
                                  boundary) != t.checkpoint_boundaries.end();
      produces = boundary > 0 &&
                 ((t.type == TaskType::kForward && t.pack.hi + 1 == boundary) ||
                  ((t.type == TaskType::kForward || t.fused_forward) && ckpt));
    } else {
      produces = t.type == TaskType::kBackward && t.pack.lo == boundary &&
                 boundary < g.num_layers;
    }
    if (!produces) continue;
    for (int k = 0; k < static_cast<int>(t.group.size()); ++k) {
      if (t.group[k].Overlaps(piece)) out.emplace_back(t.id, k);
    }
  }
  return out;
}

TEST_P(DepResolverProperty, CsrQueriesMatchBruteForce) {
  const ResolverParam p = GetParam();
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const profile::ProfileDb db =
      profile::Profiler(machine.gpu, profile::ProfilerOptions{})
          .Profile(model::Sequentialize(std::string(p.model) == "BERT96"
                                            ? model::Bert96()
                                            : model::Gpt2()));
  PackingOptions opts;
  opts.capacity = static_cast<Bytes>(
      static_cast<double>(machine.MinUsableMemory()) * 0.85);
  Configuration c;
  c.u_fwd = 4;  // U_F != U_B: producer pieces straddle consumer pieces
  c.u_bwd = 3;
  opts.min_packs = 4;
  c.bwd_packs = BackwardPacks(c.u_bwd, db, opts).value();
  c.fwd_packs = ForwardPacks(c.u_fwd, c.bwd_packs, db, opts).value();
  c.policy = PolicyTable::Uniform(db.num_layers(), StashPolicy::kRecompute);

  DepResolver deps;  // one resolver re-indexed per graph, as the estimator does
  int units = 0;
  for (int mask = 0; mask < 8; ++mask) {
    OptimizationFlags flags;
    flags.input_batch_grouping = mask & 1;
    flags.jit_update = mask & 2;
    flags.jit_compute = mask & 4;
    const TaskGraph g = GenerateHarmonyTaskGraph(
        c, p.dp ? HarmonyMode::kDataParallel : HarmonyMode::kPipelineParallel,
        machine.num_gpus, p.minibatch, flags, db);
    deps.Rebuild(g);
    SCOPED_TRACE("flags mask " + std::to_string(mask));
    std::vector<std::pair<int, int>> got;
    for (const Task& t : g.tasks) {
      if (t.type == TaskType::kUpdate) {
        for (int replica : {t.replica, -1}) {
          std::vector<int> tasks, want;
          deps.BackwardTasksForPack(t.pack, replica, &tasks);
          for (int r = 0; r < g.num_replicas; ++r) {
            if (replica >= 0 && r != replica) continue;
            for (const Task& b : g.tasks) {
              if (b.type == TaskType::kBackward && b.replica == r &&
                  b.pack == t.pack) {
                want.push_back(b.id);
              }
            }
          }
          EXPECT_EQ(tasks, want) << "update task " << t.id;
        }
        continue;
      }
      for (const MbPiece& piece : t.group) {
        // Every input a unit can read: its streamed activation or gradient,
        // and the pack-input activation a checkpointed backward re-reads.
        for (const auto& [input, boundary] :
             {std::pair{DepResolver::Input::kActivation, t.pack.lo},
              std::pair{DepResolver::Input::kGradient, t.pack.hi + 1}}) {
          got.clear();
          deps.AppendProducers(input, boundary, piece, t.replica, &got);
          EXPECT_EQ(got, BruteForceProducers(g, input, boundary, piece,
                                             t.replica))
              << "task " << t.id << " piece " << piece.begin;
          ++units;
        }
      }
    }
    for (int r = 0; r < g.num_replicas; ++r) {
      std::vector<int> want;
      for (const Task& b : g.tasks) {
        if (b.type == TaskType::kBackward && b.replica == r) want.push_back(b.id);
      }
      const auto all = deps.AllBackwardTasks(r);
      EXPECT_EQ(std::vector<int>(all.begin(), all.end()), want);
    }
  }
  EXPECT_GT(units, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Models, DepResolverProperty,
    ::testing::Values(ResolverParam{"BERT96", 13, false},
                      ResolverParam{"BERT96", 13, true},
                      ResolverParam{"BERT96", 64, false},
                      ResolverParam{"BERT96", 64, true},
                      ResolverParam{"GPT2", 13, false},
                      ResolverParam{"GPT2", 13, true},
                      ResolverParam{"GPT2", 64, false},
                      ResolverParam{"GPT2", 64, true}));

// Property sweep: every (U_F, U_B, mode, flags) combination yields a graph
// that passes structural validation (ValidateTaskGraph CHECK-fails on bugs).
struct GenParam {
  int u_fwd, u_bwd, minibatch;
  bool dp, grouping, jit_update, jit_compute, recompute;
};

// Print the case by its fields: the default byte dump includes the struct's
// uninitialised padding, so the test names would differ from one build to
// the next.
void PrintTo(const GenParam& p, std::ostream* os) {
  *os << "uf" << p.u_fwd << " ub" << p.u_bwd << " mb" << p.minibatch
      << (p.dp ? " dp" : " pp") << (p.grouping ? " grouping" : "")
      << (p.jit_update ? " jit_update" : "")
      << (p.jit_compute ? " jit_compute" : "")
      << (p.recompute ? " recompute" : "");
}

class GenerateProperty : public ::testing::TestWithParam<GenParam> {};

TEST_P(GenerateProperty, ValidGraph) {
  static const profile::ProfileDb db = MakeDb();
  const GenParam p = GetParam();
  OptimizationFlags flags;
  flags.input_batch_grouping = p.grouping;
  flags.jit_update = p.jit_update;
  flags.jit_compute = p.jit_compute;
  Configuration c = MakeConfig(db, p.u_fwd, p.u_bwd);
  c.policy = PolicyTable::Uniform(
      db.num_layers(), p.recompute ? StashPolicy::kRecompute : StashPolicy::kKeep);
  const TaskGraph g = GenerateHarmonyTaskGraph(
      c, p.dp ? HarmonyMode::kDataParallel : HarmonyMode::kPipelineParallel, 4,
      p.minibatch, flags, db);
  ValidateTaskGraph(g);  // CHECK-fails on structural bugs
  EXPECT_EQ(g.minibatch, p.minibatch);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, GenerateProperty,
    ::testing::Values(GenParam{1, 1, 8, false, true, true, true, true},
                      GenParam{2, 1, 8, false, true, true, true, true},
                      GenParam{1, 2, 9, false, true, true, true, true},
                      GenParam{4, 2, 12, false, true, true, true, true},
                      GenParam{2, 2, 8, true, true, true, true, true},
                      GenParam{3, 2, 13, true, true, true, true, true},
                      GenParam{2, 2, 8, false, false, true, true, true},
                      GenParam{2, 2, 8, true, false, true, true, true},
                      GenParam{2, 2, 8, false, true, false, true, true},
                      GenParam{2, 2, 8, false, true, true, false, true},
                      GenParam{2, 2, 8, false, true, true, true, false},
                      GenParam{2, 2, 8, false, false, false, false, false},
                      GenParam{2, 2, 8, true, false, false, false, false}));

}  // namespace
}  // namespace harmony::core
