#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/estimator.h"
#include "core/packing.h"
#include "core/scheduler.h"
#include "model/models.h"
#include "profile/profiler.h"
#include "runtime/memory_manager.h"
#include "runtime/runtime.h"
#include "trace/filter_sink.h"

namespace harmony::runtime {
namespace {

using core::Configuration;
using core::HarmonyMode;
using core::OptimizationFlags;
using core::TaskGraph;

// ---------------------------------------------------------------------------
// DeviceMemory unit tests
// ---------------------------------------------------------------------------

TEST(DeviceMemory, AccountingAndPeak) {
  DeviceMemory mem(1000, 4);
  mem.AddResident(0, 400);
  mem.AddResident(1, 300);
  EXPECT_EQ(mem.used(), 700);
  EXPECT_EQ(mem.free_bytes(), 300);
  mem.RemoveResident(0);
  EXPECT_EQ(mem.used(), 300);
  EXPECT_EQ(mem.peak_used(), 700);
  EXPECT_EQ(mem.num_resident(), 1);
}

TEST(DeviceMemory, LruVictimOrder) {
  DeviceMemory mem(1000, 4);
  mem.AddResident(0, 300);
  mem.AddResident(1, 300);
  mem.AddResident(2, 300);
  mem.Touch(0);  // 0 becomes most recently used
  std::vector<TensorId> victims;
  mem.PickVictims(400, &victims);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 1);
  EXPECT_EQ(victims[1], 2);
}

TEST(DeviceMemory, PinnedTensorsNotEvicted) {
  DeviceMemory mem(1000, 4);
  mem.AddResident(0, 500);
  mem.AddResident(1, 500);
  mem.Pin(0);
  std::vector<TensorId> victims;
  mem.PickVictims(600, &victims);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 1);
  EXPECT_EQ(mem.EvictableBytes(), 500);
  mem.Unpin(0);
  EXPECT_EQ(mem.EvictableBytes(), 1000);
}

TEST(DeviceMemory, NestedPins) {
  DeviceMemory mem(100, 4);
  mem.AddResident(0, 50);
  mem.Pin(0);
  mem.Pin(0);
  mem.Unpin(0);
  EXPECT_TRUE(mem.IsPinned(0));
  mem.Unpin(0);
  EXPECT_FALSE(mem.IsPinned(0));
}

TEST(DeviceMemory, ReaddedTensorStartsUnpinnedAndYoungest) {
  // Entries are not reset on removal: re-adding must overwrite the former
  // residency's pins and LRU stamp.
  DeviceMemory mem(1000, 4);
  mem.AddResident(0, 100);
  mem.AddResident(1, 100);
  mem.Pin(0);
  mem.Pin(0);
  mem.AddResident(2, 100);
  mem.RemoveResident(0);
  EXPECT_FALSE(mem.IsResident(0));
  EXPECT_FALSE(mem.IsPinned(0));
  mem.AddResident(0, 300);
  EXPECT_TRUE(mem.IsResident(0));
  EXPECT_FALSE(mem.IsPinned(0));
  EXPECT_EQ(mem.ResidentBytes(0), 300);
  EXPECT_EQ(mem.used(), 500);
  EXPECT_EQ(mem.EvictableBytes(), 500);
  std::vector<TensorId> victims;
  mem.PickVictims(1000, &victims);
  EXPECT_EQ(victims, (std::vector<TensorId>{1, 2, 0}));
}

TEST(DeviceMemory, NeverResidentIdsReportEmpty) {
  // A catalog large enough that the entry array is fresh mmap'd memory, with
  // residents in different words of the resident bitset.
  constexpr int kTensors = 100000;
  DeviceMemory mem(GiB(1), kTensors);
  mem.AddResident(70, 10);
  mem.AddResident(kTensors - 1, 20);
  mem.Pin(kTensors - 1);
  for (TensorId id : {0, 63, 64, 69, 71, 128, kTensors - 2}) {
    EXPECT_FALSE(mem.IsResident(id)) << id;
    EXPECT_FALSE(mem.IsPinned(id)) << id;
    EXPECT_EQ(mem.ResidentBytes(id), 0) << id;
  }
  EXPECT_TRUE(mem.IsResident(70));
  EXPECT_TRUE(mem.IsPinned(kTensors - 1));
  EXPECT_EQ(mem.ResidentBytes(kTensors - 1), 20);
  EXPECT_EQ(mem.num_resident(), 2);
  EXPECT_EQ(mem.EvictableBytes(), 10);
}

// ---------------------------------------------------------------------------
// Full runtime
// ---------------------------------------------------------------------------

struct Fixture {
  explicit Fixture(int blocks = 16, Bytes gpu_mem = MiB(512))
      : machine(hw::MachineSpec::Commodity4Gpu()),
        model(model::Sequentialize(model::TinyTransformer(blocks, 512, 128))) {
    machine.gpu.memory_capacity = gpu_mem;
    db = std::make_unique<profile::ProfileDb>(
        profile::Profiler(machine.gpu, {}).Profile(model));
  }

  Configuration Config(int u_fwd, int u_bwd, int fwd_min_packs = 4) const {
    core::PackingOptions opts;
    opts.capacity =
        static_cast<Bytes>(machine.gpu.usable_memory() * 0.85);
    Configuration c;
    c.u_fwd = u_fwd;
    c.u_bwd = u_bwd;
    c.bwd_packs = core::BackwardPacks(u_bwd, *db, opts).value();
    opts.min_packs = fwd_min_packs;
    c.fwd_packs = core::ForwardPacks(u_fwd, c.bwd_packs, *db, opts).value();
    c.policy = core::PolicyTable::Uniform(db->num_layers(),
                                          core::StashPolicy::kRecompute);
    return c;
  }

  RunMetrics Run(const TaskGraph& g) const {
    const Runtime rt(machine, model);
    auto result = rt.Execute(g);
    HARMONY_CHECK(result.ok()) << result.status();
    return result.value();
  }

  hw::MachineSpec machine;
  model::SequentialModel model;
  std::unique_ptr<profile::ProfileDb> db;
};

TEST(Runtime, HarmonyPpSwapVolumeNearAnalytic3W) {
  // Section 3's analytical example: Harmony PP swaps ~3|W| per iteration
  // (weights in for fwd and bwd, grads out) plus checkpoint traffic.
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db);
  const RunMetrics m = f.Run(g);
  const Bytes w = f.model.total_param_bytes();
  EXPECT_GE(m.total_swap(), 2 * w);
  EXPECT_LE(m.total_swap(), 6 * w);
  EXPECT_GT(m.p2p_bytes[1], 0);  // wrap-around pipeline moved activations
}

TEST(Runtime, HarmonyDpSwapVolumeNearAnalytic3NW) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kDataParallel, 4, 8, OptimizationFlags{}, *f.db);
  const RunMetrics m = f.Run(g);
  const Bytes w = f.model.total_param_bytes();
  EXPECT_GE(m.total_swap(), 2 * 4 * w);
  EXPECT_LE(m.total_swap(), 6 * 4 * w);
}

TEST(Runtime, PpSwapIsNTimesLowerThanDp) {
  // The core Sec 3 claim: 3N|W| vs 3|W|.
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const auto pp = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db));
  const auto dp = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kDataParallel, 4, 8, OptimizationFlags{}, *f.db));
  EXPECT_GT(dp.total_swap(), 2 * pp.total_swap());
}

TEST(Runtime, GroupingOffMultipliesSwaps) {
  // Without input-batch grouping each microbatch re-fetches weights
  // (repeated swaps, Sec 2 inefficiency #1).
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  OptimizationFlags grouped, ungrouped;
  ungrouped.input_batch_grouping = false;
  const auto on = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kDataParallel, 4, 32, grouped, *f.db));
  const auto off = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kDataParallel, 4, 32, ungrouped, *f.db));
  EXPECT_GT(off.total_swap(), 2 * on.total_swap());
}

TEST(Runtime, P2pOffRoutesThroughHost) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  OptimizationFlags off;
  off.p2p_transfers = false;
  const auto m = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, off, *f.db));
  for (Bytes b : m.p2p_bytes) EXPECT_EQ(b, 0);
  const auto on = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db));
  EXPECT_GT(m.total_swap(), on.total_swap());
}

TEST(Runtime, SmartEvictionDropsCleanTensors) {
  // Squeeze memory so evictions happen; Harmony's state machine drops clean
  // copies for free while LMS-style eviction always transfers.
  const Fixture f(16, MiB(384));
  const Configuration c = f.Config(1, 1);
  OptimizationFlags smart, lms;
  lms.smart_eviction = false;
  const auto a = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, smart, *f.db));
  const auto b = f.Run(core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, lms, *f.db));
  EXPECT_GE(a.clean_drops, 0);
  EXPECT_GE(b.total_swap(), a.total_swap());
}

TEST(Runtime, EstimatorTracksActualRuntime) {
  // Fig 14: the Scheduler's estimate should be close to the full runtime.
  const Fixture f;
  for (const auto& [uf, ub] : {std::pair{1, 1}, {2, 1}, {2, 2}, {4, 2}}) {
    const Configuration c = f.Config(uf, ub);
    const TaskGraph g = core::GenerateHarmonyTaskGraph(
        c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db);
    const core::RuntimeEstimator est(*f.db, f.machine);
    const double estimated = est.EstimateIteration(g).iteration_time;
    const double actual = f.Run(g).iteration_time;
    EXPECT_NEAR(estimated, actual, 0.5 * actual)
        << "U_F=" << uf << " U_B=" << ub;
  }
}

TEST(Runtime, OutOfMemoryWhenWorkingSetTooLarge) {
  Fixture f(16, MiB(512));
  // Build packs assuming 512 MiB, then execute on a machine with far less.
  const Configuration c = f.Config(2, 2);
  f.machine.gpu.memory_capacity = MiB(48);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db);
  const Runtime rt(f.machine, f.model);
  const auto result = rt.Execute(g);
  // A schedule whose packs assume 10x the available memory must fail: as
  // OutOfMemory when the allocator proves the deficit, or as Internal when
  // the starved pipeline wedges first. Either way, never a silent success.
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().code() == StatusCode::kOutOfMemory ||
              result.status().code() == StatusCode::kInternal)
      << result.status();
}

TEST(Runtime, HostCapacityEnforced) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db);
  const Runtime rt(f.machine, f.model);
  RuntimeOptions opts;
  opts.host_static_overhead = f.machine.host_memory;  // leaves no room
  const auto result = rt.Execute(g, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfMemory);
}

TEST(Runtime, ComputeBusyBounded) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db);
  const RunMetrics m = f.Run(g);
  for (TimeSec busy : m.compute_busy) {
    EXPECT_GE(busy, 0.0);
    EXPECT_LE(busy, m.iteration_time + 1e-9);
  }
  // Some GPU must be busy a significant fraction of the iteration.
  double max_busy = 0;
  for (TimeSec b : m.compute_busy) max_busy = std::max(max_busy, b);
  EXPECT_GT(max_busy, 0.3 * m.iteration_time);
}

TEST(Runtime, PeakDeviceMemoryWithinCapacity) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db);
  const RunMetrics m = f.Run(g);
  for (Bytes peak : m.peak_device_bytes) {
    EXPECT_LE(peak, f.machine.gpu.usable_memory());
  }
}

TEST(Runtime, SingleGpuWorks) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  hw::MachineSpec one = f.machine.WithNumGpus(1);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 1, 8, OptimizationFlags{}, *f.db);
  const Runtime rt(one, f.model);
  const auto m = rt.Execute(g);
  ASSERT_TRUE(m.ok()) << m.status();
  for (Bytes b : m.value().p2p_bytes) EXPECT_EQ(b, 0);
}

TEST(Runtime, DeterministicAcrossRuns) {
  const Fixture f;
  const Configuration c = f.Config(2, 2);
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      c, HarmonyMode::kPipelineParallel, 4, 8, OptimizationFlags{}, *f.db);
  const auto a = f.Run(g);
  const auto b = f.Run(g);
  EXPECT_DOUBLE_EQ(a.iteration_time, b.iteration_time);
  EXPECT_EQ(a.total_swap(), b.total_swap());
}

TEST(Runtime, FilterSinkInTraceSinksFollowsOneTensor) {
  // Per-tensor tracing is opt-in through RuntimeOptions::trace_sinks (as
  // harmony_plan --trace-tensor wires it); the runtime reads no environment.
  const Fixture f;
  const TaskGraph g = core::GenerateHarmonyTaskGraph(
      f.Config(2, 2), HarmonyMode::kPipelineParallel, 4, 8,
      OptimizationFlags{}, *f.db);
  FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  trace::FilterSink weight("W[L0,o0]", out);
  trace::FilterSink absent("W[L9999,o0]", out);
  RuntimeOptions options;
  options.trace_sinks = {&weight, &absent};
  const auto run = Runtime(f.machine, f.model).Execute(g, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(weight.matches(), 1);  // fetched, used and released at least
  EXPECT_EQ(absent.matches(), 0);

  std::rewind(out);
  std::string printed;
  for (int c = std::fgetc(out); c != EOF; c = std::fgetc(out)) {
    printed.push_back(static_cast<char>(c));
  }
  std::fclose(out);
  EXPECT_EQ(static_cast<int64_t>(
                std::count(printed.begin(), printed.end(), '\n')),
            weight.matches());
  EXPECT_NE(printed.find("[runtime-trace] W[L0,o0] "), std::string::npos)
      << printed;
  EXPECT_EQ(printed.find("L9999"), std::string::npos);
}

// Property sweep: the runtime must complete (no deadlock, no stall) for all
// flag combinations the ablation bench will exercise.
class RuntimeFlagSweep : public ::testing::TestWithParam<int> {};

TEST_P(RuntimeFlagSweep, CompletesForAllFlagCombos) {
  static const Fixture f;
  const int bits = GetParam();
  OptimizationFlags flags;
  flags.input_batch_grouping = bits & 1;
  flags.jit_update = bits & 2;
  flags.jit_compute = bits & 4;
  flags.p2p_transfers = bits & 8;
  flags.prefetch = bits & 16;
  flags.cpu_optimizer = bits & 32;
  const Configuration c = f.Config(2, 2);
  const HarmonyMode mode = (bits & 64) ? HarmonyMode::kDataParallel
                                       : HarmonyMode::kPipelineParallel;
  const TaskGraph g =
      core::GenerateHarmonyTaskGraph(c, mode, 4, 8, flags, *f.db);
  const Runtime rt(f.machine, f.model);
  const auto m = rt.Execute(g);
  ASSERT_TRUE(m.ok()) << m.status() << " bits=" << bits;
  EXPECT_GT(m.value().iteration_time, 0);
}

INSTANTIATE_TEST_SUITE_P(AllFlagCombos, RuntimeFlagSweep,
                         ::testing::Range(0, 128, 1));

}  // namespace
}  // namespace harmony::runtime
