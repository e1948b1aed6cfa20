// FlowNetwork fair-share pinning tests. Two families:
//
//  * Hand-derived max-min schedules for contended swap/p2p mixes — the exact
//    completion times progressive filling must produce. These pin the
//    *semantics* of the incremental recompute against the textbook algorithm.
//  * Regression coverage for the rate-0 freeze: a saturated link whose
//    residual hits 0.0 through repeated floating-point subtraction used to
//    freeze a flow at rate 0 and abort in ScheduleNextCompletion; the binding
//    share is now clamped to a positive floor (monotone in the fill rounds).
//  * Once-per-instant recompute: flow starts and drains only mark the rates
//    stale, and one zero-delay flush per simulated instant runs progressive
//    filling. The completion times are bit patterns recorded from the
//    former recompute-on-every-start-and-finish network, so deferring the
//    pass is pinned to change no timestamp.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "hw/machine.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace harmony::sim {
namespace {

TEST(FlowNetworkRates, TwoLinkContentionExactShares) {
  // L0 = 12 B/s shared by f1{L0} and f2{L0,L1}; L1 = 4 B/s also carries
  // f3{L1}. Progressive filling: L1 binds first (4/2 = 2 < 12/2 = 6), so
  // f2 = f3 = 2 B/s; then f1 takes L0's residual 12-2 = 10 B/s.
  Engine e;
  FlowNetwork net(&e, {12.0, 4.0});
  double f1 = -1, f2 = -1, f3 = -1;
  net.StartFlow({0}, 100, [&] { f1 = e.now(); });
  net.StartFlow({0, 1}, 100, [&] { f2 = e.now(); });
  net.StartFlow({1}, 100, [&] { f3 = e.now(); });
  e.Run();
  // f2, f3 run at 2 B/s -> drain together at t=50. f1 runs at 10 B/s and
  // drains at t=10 (f2's completion does not change f1's 10 B/s share until
  // after f1 is already done).
  EXPECT_NEAR(f1, 10.0, 1e-9);
  EXPECT_NEAR(f2, 50.0, 1e-9);
  EXPECT_NEAR(f3, 50.0, 1e-9);
}

TEST(FlowNetworkRates, ReleaseCascadeReassignsExactly) {
  // One 10 B/s link, flows of 10/20/40 bytes. Fair sharing gives each
  // 10/3 B/s; drains cascade and survivors absorb the freed share:
  //   t1 = 3.0   (10 bytes at 10/3)
  //   t2 = 3.0 + (20 - 10)/5 = 5.0
  //   t3 = 5.0 + (40 - 10 - 10)/10 = 7.0
  Engine e;
  FlowNetwork net(&e, {10.0});
  double t1 = -1, t2 = -1, t3 = -1;
  net.StartFlow({0}, 10, [&] { t1 = e.now(); });
  net.StartFlow({0}, 20, [&] { t2 = e.now(); });
  net.StartFlow({0}, 40, [&] { t3 = e.now(); });
  e.Run();
  EXPECT_NEAR(t1, 3.0, 1e-9);
  EXPECT_NEAR(t2, 5.0, 1e-9);
  EXPECT_NEAR(t3, 7.0, 1e-9);
}

TEST(FlowNetworkRates, SwapP2pMixOn8GpuMachine) {
  // A contended mix on the commodity 8-GPU PCIe tree: four swap-ins behind
  // one switch uplink (4:1 oversubscription) plus a cross-switch p2p that
  // shares only the destination's gpu.down link with nothing. Swap-ins split
  // the uplink four ways; the p2p stays at full PCIe rate.
  Engine e;
  const hw::MachineSpec m = hw::MachineSpec::Commodity8Gpu();
  Interconnect net(m);
  FlowNetwork flows(&e, net.capacities());
  std::vector<double> swap_done(4, -1);
  double p2p_done = -1;
  for (int g = 0; g < 4; ++g) {  // all on switch 0
    flows.StartFlow(net.SwapInPath(g), GiB(2), [&, g] { swap_done[g] = e.now(); });
  }
  flows.StartFlow(net.P2pPath(4, 5), GiB(2), [&] { p2p_done = e.now(); });
  e.Run();
  const double swap_expected = 4.0 * static_cast<double>(GiB(2)) / m.uplink_bw;
  const double p2p_expected = static_cast<double>(GiB(2)) / m.pcie_bw;
  for (int g = 0; g < 4; ++g) EXPECT_NEAR(swap_done[g], swap_expected, 1e-6);
  EXPECT_NEAR(p2p_done, p2p_expected, 1e-6);
}

TEST(FlowNetworkRates, StaggeredStartExactIntegration) {
  // Rates must re-integrate exactly across a mid-flight recompute: f1 runs
  // alone at 10 B/s for 1s (10 bytes moved), then shares with f2 at 5 B/s.
  //   f1: 10 + remaining 30 at 5 B/s with f2 ... f1 has 40 bytes total:
  //       1s alone (10 moved) + 6s shared (30 at 5) -> t=7, f2 (20 bytes)
  //       drains at 1 + 4 = 5s, then f1's last 10 bytes at 10 B/s: recheck.
  //   Exact cascade: at t=5, f2 done (20 at 5 B/s); f1 moved 10 + 20 = 30,
  //   10 left at full 10 B/s -> t=6.
  Engine e;
  FlowNetwork net(&e, {10.0});
  double f1 = -1, f2 = -1;
  net.StartFlow({0}, 40, [&] { f1 = e.now(); });
  e.After(1.0, [&] {
    net.StartFlow({0}, 20, [&] { f2 = e.now(); });
  });
  e.Run();
  EXPECT_NEAR(f2, 5.0, 1e-9);
  EXPECT_NEAR(f1, 6.0, 1e-9);
}

TEST(FlowNetworkRates, SaturatedResidualDoesNotFreezeAtZero) {
  // Regression: L0 (cap 1.0) carries ten flows that also traverse L1
  // (cap 1.1). L0 binds at share 0.1; subtracting 0.1 ten times from 1.1
  // leaves a residual of ~1e-16 (not the exact 0.1 the algebra promises), so
  // the lone L1-only flow's share collapsed to ~0 — or to exactly 0.0 once
  // the negative-residual clamp rounded it — and ScheduleNextCompletion
  // aborted on HARMONY_CHECK_GT(rate, 0). The binding share is now clamped
  // to be monotone across fill rounds, so the L1 flow gets >= 0.1 B/s.
  Engine e;
  FlowNetwork net(&e, {1.0, 1.1});
  int drained = 0;
  double lone_done = -1;
  for (int i = 0; i < 10; ++i) {
    net.StartFlow({0, 1}, 100, [&] { ++drained; });
  }
  net.StartFlow({1}, 100, [&] { lone_done = e.now(); });
  e.Run();
  EXPECT_EQ(drained, 10);
  // The lone flow's true max-min rate is ~0.1 B/s (L1 residual after the
  // shared flows take 1.0). 100 bytes then drain in ~1000s; allow the fp
  // floor some slack but reject the runaway (rate ~1e-16 => ~1e18 s).
  EXPECT_GT(lone_done, 0.0);
  EXPECT_LT(lone_done, 2100.0);
}

TEST(FlowNetworkRates, ManyFlowsSaturatingOneLink) {
  // 49 equal flows on one link: share = cap/49 is not representable, and the
  // repeated-subtraction residual noise must neither abort nor spin. All
  // flows drain together at 49 * bytes / cap.
  Engine e;
  FlowNetwork net(&e, {GiBps(10)});
  int drained = 0;
  double last = -1;
  for (int i = 0; i < 49; ++i) {
    net.StartFlow({0}, MiB(64), [&] {
      ++drained;
      last = e.now();
    });
  }
  e.Run();
  EXPECT_EQ(drained, 49);
  const double expected = 49.0 * static_cast<double>(MiB(64)) / GiBps(10);
  EXPECT_NEAR(last, expected, 1e-6);
  EXPECT_LT(e.events_processed(), 300);
}

// ---------------------------------------------------------------------------
// Once-per-instant recompute
// ---------------------------------------------------------------------------

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

TEST(FlowNetworkFlush, KFlowsStartedInOneEventRecomputeOnce) {
  // Twelve flows contend on the 8-GPU tree, all started by one event: four
  // swap-ins behind switch 0's uplink, four swap-outs from switch 1 and four
  // cross-switch p2p transfers, each a different size so the drains cascade
  // over distinct instants.
  Engine e;
  const hw::MachineSpec m = hw::MachineSpec::Commodity8Gpu();
  const Interconnect net(m);
  FlowNetwork flows(&e, net.capacities());
  constexpr int kFlows = 12;
  std::vector<double> done(kFlows, -1);
  int64_t after_starts = -1;
  int64_t after_flush = -1;
  e.At(0.5, [&] {
    for (int i = 0; i < kFlows; ++i) {
      const std::vector<int>& path = i < 4   ? net.SwapInPath(i)
                                     : i < 8 ? net.SwapOutPath(i)
                                             : net.P2pPath(i - 8, i - 4);
      flows.StartFlow(path, MiB(64) * (i + 1), [&, i] { done[i] = e.now(); });
    }
    after_starts = flows.rate_recomputes();
    // Queued behind the flush the first start scheduled.
    e.After(0.0, [&] { after_flush = flows.rate_recomputes(); });
  });
  e.Run();
  EXPECT_EQ(after_starts, 0);
  EXPECT_EQ(after_flush, 1);
  // One more pass per drain instant at most (every size differs, but drains
  // landing in one instant share a pass).
  EXPECT_LE(flows.rate_recomputes(), 1 + kFlows);
  EXPECT_EQ(flows.num_active_flows(), 0);
  const uint64_t kExpected[kFlows] = {
      0x3fe0969696969697ull, 0x3fe1078787878788ull, 0x3fe152d2d2d2d2d3ull,
      0x3fe1787878787879ull, 0x3fe2f0f0f0f0f0f1ull, 0x3fe361e1e1e1e1e2ull,
      0x3fe3ad2d2d2d2d2dull, 0x3fe3d2d2d2d2d2d3ull, 0x3fe54b4b4b4b4b4bull,
      0x3fe5bc3c3c3c3c3cull, 0x3fe6078787878788ull, 0x3fe62d2d2d2d2d2dull,
  };
  for (int i = 0; i < kFlows; ++i) {
    EXPECT_EQ(Bits(done[i]), kExpected[i])
        << "flow " << i << " done at " << done[i];
  }
}

TEST(FlowNetworkFlush, CapacityChangeInStartInstantFlushesFirst) {
  // A link degrades in the instant flows start on it (and a second event in
  // that instant adds another flow), then recovers later. The change must
  // see that instant's flows, and the completions must match the immediate
  // per-start recompute exactly.
  Engine e;
  const hw::MachineSpec m = hw::MachineSpec::Commodity8Gpu();
  const Interconnect net(m);
  FlowNetwork flows(&e, net.capacities());
  const int uplink = net.SwapInPath(0)[1];  // switch 0's downlink from host
  std::vector<double> done(4, -1);
  e.At(0.25, [&] {
    flows.StartFlow(net.SwapInPath(0), MiB(256), [&] { done[0] = e.now(); });
    flows.StartFlow(net.SwapInPath(1), MiB(128), [&] { done[1] = e.now(); });
    flows.StartFlow(net.P2pPath(0, 4), MiB(192), [&] { done[2] = e.now(); });
    flows.SetLinkCapacityFactor(uplink, 0.5);
    EXPECT_EQ(flows.link_capacity(uplink), 0.5 * net.capacities()[uplink]);
  });
  e.At(0.25, [&] {
    flows.StartFlow(net.SwapInPath(2), MiB(64), [&] { done[3] = e.now(); });
  });
  e.At(0.26, [&] { flows.SetLinkCapacityFactor(uplink, 1.0); });
  e.Run();
  const uint64_t kExpected[4] = {0x3fd260fa942dc761ull, 0x3fd1ca63fd9730cbull,
                                 0x3fd0e1e1e1e1e1e2ull, 0x3fd133cd67009a34ull};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(Bits(done[i]), kExpected[i])
        << "flow " << i << " done at " << done[i];
  }
}

TEST(FlowNetworkFlush, ZeroByteFlowInStartInstant) {
  // A zero-byte flow among real ones completes in its start instant, after
  // the events already queued there, and costs no recompute.
  Engine e;
  FlowNetwork flows(&e, {10.0});
  std::vector<int> order;
  std::vector<double> done(3, -1);
  e.At(1.0, [&] {
    flows.StartFlow({0}, 100, [&] { order.push_back(0); done[0] = e.now(); });
    flows.StartFlow({0}, 0, [&] { order.push_back(1); done[1] = e.now(); });
    flows.StartFlow({0}, 50, [&] { order.push_back(2); done[2] = e.now(); });
  });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(done[1], 1.0);
  const uint64_t kExpected[3] = {0x4030000000000000ull, 0x3ff0000000000000ull,
                                 0x4026000000000000ull};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(Bits(done[i]), kExpected[i])
        << "flow " << i << " done at " << done[i];
  }
  // The start instant and the two drain instants, one pass each.
  EXPECT_EQ(flows.rate_recomputes(), 3);
  EXPECT_EQ(flows.link_bytes(0), 150.0);
}

}  // namespace
}  // namespace harmony::sim
