// Heap-allocation budget of one executed training iteration.
//
// A counting global operator new tallies every allocation made while
// Runtime::Execute compiles a task graph into a StepProgram and runs it on
// the simulator. Steady-state work (stream ops, step joins, residency waits
// and transfers, flows, events) runs on recycled records, so the count is a
// small per-program setup cost, independent of the number of steps. The
// budgets sit about 1.5x above the measured counts (741 for GPT2, 595 for
// BERT96) and below the count plus one allocation per step (416 and 1060
// steps; each step also pushes at least one stream op), so putting an
// allocation back on every step or op fails here.
//
// Not built under sanitizers: they replace operator new themselves.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/packing.h"
#include "core/scheduler.h"
#include "model/models.h"
#include "profile/profiler.h"
#include "runtime/runtime.h"
#include "runtime/step_compiler.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* Allocate(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace harmony::runtime {
namespace {

struct Counted {
  int64_t allocations = 0;
  int64_t steps = 0;
};

/// Plans `layer_graph` as a 4-GPU Harmony PP run (minibatch 16, u=4) and
/// counts the allocations of one Execute.
Counted CountExecute(const model::LayerGraph& layer_graph,
                     core::StashPolicy stash) {
  const hw::MachineSpec machine = hw::MachineSpec::Commodity4Gpu();
  const model::SequentialModel model = model::Sequentialize(layer_graph);
  const profile::ProfileDb db = profile::Profiler(machine.gpu, {}).Profile(model);
  core::PackingOptions opts;
  opts.capacity = static_cast<Bytes>(machine.gpu.usable_memory() * 0.85);
  core::Configuration c;
  c.u_fwd = c.u_bwd = 4;
  c.bwd_packs = core::BackwardPacks(4, db, opts).value();
  opts.min_packs = 4;
  c.fwd_packs = core::ForwardPacks(4, c.bwd_packs, db, opts).value();
  c.policy = core::PolicyTable::Uniform(db.num_layers(), stash);
  const core::TaskGraph graph = core::GenerateHarmonyTaskGraph(
      c, core::HarmonyMode::kPipelineParallel, 4, 16, {}, db);
  const Runtime runtime(machine, model);

  Counted out;
  const int64_t before = g_allocations.load();
  auto result = runtime.Execute(graph, RuntimeOptions{});
  out.allocations = g_allocations.load() - before;
  EXPECT_TRUE(result.ok()) << result.status();
  for (const auto& device : StepCompiler(machine, model, graph).Compile().steps) {
    out.steps += static_cast<int64_t>(device.size());
  }
  return out;
}

TEST(AllocationBudget, Gpt2Execute) {
  // Keep-all stash: the GPT2 run that evicts (185 evictions, 142 clean
  // drops), so the eviction and refetch paths are inside the count.
  const Counted c = CountExecute(model::Gpt2(), core::StashPolicy::kKeep);
  std::printf("GPT2: %lld allocations for %lld steps\n",
              static_cast<long long>(c.allocations),
              static_cast<long long>(c.steps));
  EXPECT_LE(c.allocations, 1100);
}

TEST(AllocationBudget, Bert96Execute) {
  const Counted c = CountExecute(model::Bert96(), core::StashPolicy::kRecompute);
  std::printf("BERT96: %lld allocations for %lld steps\n",
              static_cast<long long>(c.allocations),
              static_cast<long long>(c.steps));
  EXPECT_LE(c.allocations, 900);
}

}  // namespace
}  // namespace harmony::runtime
