// Tests of the benchmark's own measurement code: the percentile rule, the
// seeded generators, stats-envelope deltas, the unattributed remainder, the
// knee interpolation, the host speedometer, and agreement between
// BENCHMARK.json and the metric tables the runner prints.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "cluster/hash_ring.h"
#include "generators.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

using harmony::json::Value;

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 50), 50);
  EXPECT_EQ(Percentile(OneTo(100), 99), 99);
  EXPECT_EQ(Percentile(OneTo(100), 100), 100);
  EXPECT_EQ(Percentile(OneTo(5), 50), 3);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(PercentileTest, SupportedNeedsTenSamplesBeyond) {
  EXPECT_TRUE(PercentileSupported(1000, 99));
  EXPECT_FALSE(PercentileSupported(999, 99));
  EXPECT_TRUE(PercentileSupported(100, 90));
  EXPECT_FALSE(PercentileSupported(99, 90));
  EXPECT_TRUE(PercentileSupported(20, 50));
  EXPECT_FALSE(PercentileSupported(19, 50));
}

TEST(PercentileTest, HighestSupported) {
  EXPECT_EQ(HighestSupportedPercentile(19), 0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50);
  EXPECT_EQ(HighestSupportedPercentile(999), 90);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
}

TEST(PercentileTest, BlockMedianIgnoresOneStalledBlock) {
  std::vector<double> samples;
  for (int block = 0; block < 5; ++block) {
    for (int i = 1; i <= 100; ++i) samples.push_back(block == 2 ? 1000.0 * i : i);
  }
  samples.push_back(1e9);  // an incomplete trailing block is dropped
  EXPECT_EQ(BlockMedianPercentile(samples, 100, 99), 99);
  EXPECT_GE(Percentile(samples, 99), 90000);  // the plain p99 is the stall
  EXPECT_EQ(BlockMedianPercentile({1, 2, 3}, 100, 99), 0);
}

TEST(PercentileTest, BlockMedianReportsTheMedianBlock) {
  // Twenty blocks of ten; block b runs (b + 1) times slower than block 0.
  std::vector<double> samples;
  for (int block = 0; block < 20; ++block) {
    for (int i = 1; i <= 10; ++i) samples.push_back((block + 1) * i);
  }
  EXPECT_EQ(BlockMedianPercentile(samples, 10, 50), 50);  // block 9: 10 * 5
}

TEST(PercentileTest, MixedLatencyDoesNotJumpBetweenKinds) {
  // Two kinds, 10 us and 1000 us; one extra sample of either kind moves a
  // pooled median by 100x but leaves the mixed figures alone.
  std::vector<double> fast(50, 10.0), slow(50, 1000.0);
  fast[0] = 20;  // one slow outlier: twice its kind's median
  const MixLatency a = MixedLatency({fast, slow}, 90, 50);
  slow.push_back(1000);
  const MixLatency b = MixedLatency({fast, slow}, 90, 50);
  EXPECT_DOUBLE_EQ(a.typical, 100);  // sqrt(10 * 1000)
  EXPECT_DOUBLE_EQ(b.typical, 100);
  EXPECT_DOUBLE_EQ(a.tail, 100);  // the p90 ratio is still 1
  EXPECT_EQ(b.block_samples, 100u);
  EXPECT_EQ(b.blocks, 1u);  // the 51st slow sample is an incomplete block
  EXPECT_DOUBLE_EQ(MixedLatency({fast, slow}, 100, 50).tail, 200);
  EXPECT_EQ(MixedLatency({}, 90, 50).typical, 0);
}

TEST(PercentileTest, MixedLatencyTailIgnoresOneStalledBlock) {
  // Three blocks of ten rounds; every sample of the middle block is 3x slow.
  std::vector<double> fast(30, 10.0), slow(30, 1000.0);
  for (size_t i = 10; i < 20; ++i) {
    fast[i] *= 3;
    slow[i] *= 3;
  }
  const MixLatency m = MixedLatency({fast, slow}, 90, 10);
  EXPECT_EQ(m.blocks, 3u);
  EXPECT_DOUBLE_EQ(m.tail, m.typical);  // the pooled p90 ratio would be 3
}

TEST(ZipfTest, SameSeedSameDraws) {
  const Zipf zipf(64);
  Rng a(7), b(7), c(8);
  std::vector<int> da, db, dc;
  for (int i = 0; i < 1000; ++i) {
    da.push_back(zipf.Draw(&a));
    db.push_back(zipf.Draw(&b));
    dc.push_back(zipf.Draw(&c));
  }
  EXPECT_EQ(da, db);
  EXPECT_NE(da, dc);
}

TEST(ZipfTest, FrequenciesFollowOneOverRank) {
  const Zipf zipf(64);
  double harmonic = 0;
  for (int k = 1; k <= 64; ++k) harmonic += 1.0 / k;
  Rng rng(1);
  std::vector<int> counts(64);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(zipf.Draw(&rng))];
  for (int rank : {0, 1, 9}) {
    EXPECT_NEAR(counts[static_cast<size_t>(rank)] / static_cast<double>(n),
                1.0 / ((rank + 1) * harmonic), 0.005);
  }
  EXPECT_GT(counts[63], 0);
}

std::vector<std::string> Members() {
  return {"unix:d0.sock", "unix:d1.sock", "unix:d2.sock"};
}

TEST(GeneratorTest, ColdStreamsNeverRepeatAndStayWithTheirOwner) {
  const auto streams = ColdStreams(3, Members(), 400);
  harmony::cluster::HashRing ring;
  for (const std::string& m : Members()) ring.AddNode(m);
  std::set<uint64_t> seen;
  for (size_t d = 0; d < streams.size(); ++d) {
    ASSERT_EQ(streams[d].size(), 400u);
    for (const auto& request : streams[d]) {
      const uint64_t fp = harmony::serve::RequestFingerprint(request);
      EXPECT_TRUE(seen.insert(fp).second) << "repeated fingerprint";
      EXPECT_EQ(ring.OwnerOf(fp), Members()[d]);
    }
  }
}

TEST(GeneratorTest, ColdStreamsAreSeeded) {
  const auto a = ColdStreams(5, Members(), 50);
  const auto b = ColdStreams(5, Members(), 50);
  const auto c = ColdStreams(6, Members(), 50);
  for (size_t d = 0; d < a.size(); ++d) {
    for (size_t i = 0; i < a[d].size(); ++i) {
      EXPECT_EQ(harmony::serve::CanonicalRequestJson(a[d][i]),
                harmony::serve::CanonicalRequestJson(b[d][i]));
    }
  }
  EXPECT_NE(harmony::serve::CanonicalRequestJson(a[0][0]),
            harmony::serve::CanonicalRequestJson(c[0][0]));
}

TEST(GeneratorTest, WarmCatalogIsDistinctAndSeeded) {
  const auto a = WarmCatalog(9, 64);
  const auto b = WarmCatalog(9, 64);
  std::set<uint64_t> seen;
  ASSERT_EQ(a.size(), 64u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(seen.insert(harmony::serve::RequestFingerprint(a[i])).second);
    EXPECT_EQ(harmony::serve::CanonicalRequestJson(a[i]),
              harmony::serve::CanonicalRequestJson(b[i]));
  }
}

TEST(GeneratorTest, TrainScenariosArePermuted) {
  const auto a = TrainScenarios(1);
  const auto b = TrainScenarios(1);
  const auto c = TrainScenarios(2);
  ASSERT_EQ(a.size(), 16u);
  std::set<std::string> names;
  bool same_as_c = true;
  for (size_t i = 0; i < a.size(); ++i) {
    names.insert(a[i].Name());
    EXPECT_EQ(a[i].Name(), b[i].Name());
    same_as_c = same_as_c && a[i].Name() == c[i].Name();
  }
  EXPECT_EQ(names.size(), 16u);
  EXPECT_FALSE(same_as_c);
}

TEST(StatsTest, FlattenDeltaAndSumOverDaemons) {
  auto parse = [](const char* text) { return harmony::json::Parse(text).value(); };
  const Value before = parse(
      R"({"type":"stats","cache":{"hits":10,"misses":4},)"
      R"("cluster":{"self":"unix:a","disk":{"puts":3}}})");
  const Value after = parse(
      R"({"type":"stats","cache":{"hits":25,"misses":4,"evictions":2},)"
      R"("cluster":{"self":"unix:a","disk":{"puts":8}}})");
  const auto flat = FlattenCounters(after);
  EXPECT_EQ(Counter(flat, "cache.hits"), 25);
  EXPECT_EQ(Counter(flat, "cluster.disk.puts"), 8);
  EXPECT_EQ(flat.count("cluster.self"), 0u);  // strings are not counters
  const auto delta = CounterDelta(FlattenCounters(before), flat);
  EXPECT_EQ(Counter(delta, "cache.hits"), 15);
  EXPECT_EQ(Counter(delta, "cache.misses"), 0);
  EXPECT_EQ(Counter(delta, "cache.evictions"), 2);  // absent before = 0
  EXPECT_EQ(Counter(delta, "cluster.disk.puts"), 5);
  std::map<std::string, double> tier;
  AccumulateCounters(delta, &tier);
  AccumulateCounters(delta, &tier);
  EXPECT_EQ(Counter(tier, "cache.hits"), 30);
  EXPECT_EQ(Counter(tier, "not.there"), 0);
  EXPECT_EQ(Ratio(1, 0), 0);
}

TEST(RemainderTest, ShareOfTheWholeNotCoveredByLayers) {
  EXPECT_DOUBLE_EQ(UnattributedFrac(100, {30, 50}), 0.2);
  EXPECT_DOUBLE_EQ(UnattributedFrac(100, {}), 1.0);
  EXPECT_DOUBLE_EQ(UnattributedFrac(100, {80, 40}), -0.2);  // over-covered
  EXPECT_EQ(UnattributedFrac(0, {1}), 0);
}

TEST(SpeedTest, ReferenceWorkIsFixed) {
  EXPECT_EQ(ReferenceWork(3), ReferenceWork(3));
  EXPECT_NE(ReferenceWork(3), ReferenceWork(4));
  EXPECT_GT(ReferenceUs(3), 0);
}

TEST(SpeedTest, SpeedometerSamplesEveryCpu) {
  const Clock::time_point start = Clock::now();
  double slowdown = 0;
  {
    const Speedometer speed;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    slowdown = speed.Slowdown(start, Clock::now());
    // Outside any sample: no figure, and SlowdownAround falls back to 1.
    EXPECT_EQ(speed.Slowdown(start - std::chrono::hours(2), start - std::chrono::hours(1)), 0);
    EXPECT_EQ(speed.SlowdownAround(start - std::chrono::hours(1)), 1);
  }
  // An idle test process: the reference takes some fraction of a
  // millisecond to a few milliseconds on any host this runs on.
  EXPECT_GT(slowdown, 0.05);
  EXPECT_LT(slowdown, 50);
}

TEST(SpeedTest, StealFractionIsAShare) {
  const StealMeter steal;
  const Clock::time_point start = Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const double f = steal.Fraction(start, Clock::now());
  EXPECT_GE(f, 0);
  EXPECT_LE(f, 1);
}

TEST(KneeTest, InterpolatesTheCrossing) {
  const std::vector<double> rates = {10, 20, 30, 40};
  EXPECT_NEAR(KneeRate(rates, {100, 500, 2000, 9000}, 1000), 25, 1e-9);
  EXPECT_EQ(KneeRate(rates, {100, 200, 300, 400}, 1000), 40);
  EXPECT_EQ(KneeRate(rates, {2000, 3000, 4000, 5000}, 1000), 0);
}

TEST(KneeTest, OneNoisyStepDoesNotDecide) {
  const std::vector<double> rates = {10, 20, 30, 40, 50};
  const double inf = std::numeric_limits<double>::infinity();
  // A spike at 20 is pooled with the quieter 30; the crossing stays high.
  const double knee = KneeRate(rates, {100, 1500, 300, 800, 5000}, 1000);
  EXPECT_GT(knee, 40);
  EXPECT_LT(knee, 50);
  // A growing backlog (infinite tail) ends the ladder at the rate before.
  EXPECT_EQ(KneeRate(rates, {100, 200, inf, 300, 400}, 1000), 20);
}

TEST(MetricsTest, TablesMatchBenchmarkJson) {
  std::ifstream in(std::string(PERFBENCH_DIR) + "/../BENCHMARK.json");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = harmony::json::Parse(text.str());
  ASSERT_TRUE(parsed.ok());
  auto check = [](const Value* list, const std::vector<MetricSpec>& specs) {
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(list->at(i).Find("name")->AsString(), specs[i].name);
      EXPECT_EQ(list->at(i).Find("unit")->AsString(), specs[i].unit);
    }
  };
  check(parsed.value().Find("end_to_end"), EndToEndSpecs());
  check(parsed.value().Find("per_layer"), PerLayerSpecs());
}

TEST(MetricsTest, EmittersFillEveryMetric) {
  RunResult result;
  EmitPerLayer({{"search.configs_explored", 12}}, &result);
  EXPECT_EQ(result.metrics.size(), PerLayerSpecs().size());
  EXPECT_TRUE(result.errors.empty());
  EmitPerLayer({{"no.such_metric", 1}}, &result);
  EXPECT_FALSE(result.errors.empty());

  RunResult e2e;
  EndToEnd values;
  values.setup_s = 1;
  EmitEndToEnd(values, &e2e);
  EXPECT_EQ(e2e.metrics.size(), EndToEndSpecs().size());
  EXPECT_FALSE(e2e.errors.empty());  // zero metrics are refused
}

}  // namespace
}  // namespace perfbench
