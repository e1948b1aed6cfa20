// cold_tier: three harmony_serve daemons formed into a cache tier, each with
// a 1 MiB plan cache (less than a run writes) and a disk-backed warm store.
// Closed loop, one outstanding request per member: writes are never-repeated
// requests sent to their ring owner (one search, one cache insert, one disk
// put each); reads re-request an earlier write at a member that does not own
// it, which the tier answers by peer fill from the owner's memory or, for
// older keys the owner has evicted, from the owner's disk.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "cluster/disk_store.h"
#include "core/estimator.h"
#include "core/packing.h"
#include "core/search.h"
#include "daemon.h"
#include "generators.h"
#include "profile/profiler.h"
#include "serve/client.h"
#include "serve/plan_cache.h"
#include "workloads.h"

namespace perfbench {
namespace {

using harmony::serve::PlanRequest;
using harmony::serve::PlanResponse;
using harmony::serve::ServeClient;

constexpr int kMembers = 3;
constexpr int kSetupReps = 5;
/// Writes per member whose plans feed the deterministic counts and the
/// in-process search check; every run must complete at least this many.
constexpr int kPrefix = 64;
/// An old read targets a write this many writes behind its owner's newest.
/// By then the owner has inserted about its 1 MiB cache's worth of plans
/// (about 1.4 KB each; a member inserts its writes and its refills), so
/// older keys start coming from the owner's disk.
constexpr int kOldReadLag = 300;
/// The traced run's memo probe (MemoProbe): this many of member 0's newest
/// writes, each re-requested at member 0 this many times.
constexpr int kMemoKeys = 16;
constexpr int kMemoRepeats = 20;

// Formatted rather than concatenated: GCC 12 raises a false -Wrestrict on
// short std::string concatenations.
std::string Format(const char* pattern, int d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), pattern, d);
  return buf;
}
std::string Name(int d) { return Format("d%d", d); }
std::string Socket(int d) { return Format("d%d.sock", d); }
std::string Member(int d) { return Format("unix:d%d.sock", d); }

std::vector<std::string> Members() {
  std::vector<std::string> m;
  for (int d = 0; d < kMembers; ++d) m.push_back(Member(d));
  return m;
}

/// Canonical bytes of the plan part of a response (config, estimate and
/// search counts), for exact comparisons.
std::string PlanBytes(const PlanResponse& r) {
  harmony::json::Value v = harmony::json::Value::Object();
  v.Set("config", harmony::serve::ConfigurationToJson(r.config));
  v.Set("estimate", harmony::serve::EstimateToJson(r.estimate));
  v.Set("configs_explored", r.configs_explored);
  v.Set("configs_feasible", r.configs_feasible);
  return v.Dump();
}

struct Write {
  PlanRequest request;
  PlanResponse response;
  std::string plan_bytes;
  double e2e_us = 0;
  double done_s = 0;  // completion, seconds into the loop
};

struct Read {
  double e2e_us = 0;
  double done_s = 0;
  bool old = false;  // lagged read (the owner has likely evicted the key)
  std::string filled_from;
};

/// One tier: its run directory and member daemons.
struct Tier {
  std::unique_ptr<RunDir> dir;
  std::vector<std::unique_ptr<Daemon>> daemons;

  harmony::Status Start(const Options& options) {
    dir = std::make_unique<RunDir>(options.work_dir);
    std::string peers;
    for (int d = 0; d < kMembers; ++d) {
      if (d > 0) peers += ',';
      peers += Member(d);
    }
    for (int d = 0; d < kMembers; ++d) {
      daemons.push_back(std::make_unique<Daemon>(
          Name(d), options.serve_binary, *dir,
          std::vector<std::string>{
              "--unix=" + Socket(d), "--self=" + Member(d), "--peers=" + peers,
              Format("--cache-dir=d%d.cache", d), "--cache-mb=1",
              "--workers=1"}));
      HARMONY_RETURN_IF_ERROR(daemons.back()->Start());
    }
    for (int d = 0; d < kMembers; ++d) {
      HARMONY_RETURN_IF_ERROR(daemons[d]->WaitReady(Socket(d), 30));
    }
    return harmony::Status::Ok();
  }

  double PeakRssMb() const {
    double total = 0;
    for (const auto& d : daemons) total += d->PeakRssMb();
    return total;
  }

  /// Stops every member; the first failure (naming its daemon) wins.
  harmony::Status Stop() {
    harmony::Status first = harmony::Status::Ok();
    for (int d = 0; d < static_cast<int>(daemons.size()); ++d) {
      harmony::Status st = daemons[d]->Stop(Socket(d), 10);
      if (first.ok() && !st.ok()) first = st;
    }
    daemons.clear();
    dir.reset();
    return first;
  }
};

/// The closed-loop run over one tier. Slot d drives member d over one
/// connection: write (d owns the key), then a young read of member d+2's
/// newest write, then an old read of member d+1's write kOldReadLag behind.
/// The loop ends after `seconds`, or earlier when a slot has sent its whole
/// write stream.
class ClosedLoop {
 public:
  ClosedLoop(const std::vector<std::vector<PlanRequest>>& streams, Tier* tier)
      : streams_(streams), tier_(tier), writes_(kMembers), completed_(kMembers) {}

  struct Outcome {
    std::vector<std::deque<Write>> writes;
    std::vector<Read> reads;
    Clock::time_point start, end;  // of the timed loop
    bool exhausted = false;  // a write stream ran out before the time did
    int64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    std::map<std::string, double> stats_delta;  // summed over members
  };

  Outcome Run(double seconds) {
    Outcome out;
    std::vector<std::unique_ptr<ServeClient>> clients;
    std::vector<std::map<std::string, double>> before(kMembers);
    for (int d = 0; d < kMembers; ++d) {
      clients.push_back(std::make_unique<ServeClient>());
      harmony::Status st =
          clients[d]->ConnectUnix(tier_->daemons[d]->SocketPath(Socket(d)));
      auto stats = st.ok() ? clients[d]->Stats()
                           : harmony::Result<harmony::json::Value>(st);
      if (!stats.ok()) {
        out.errors.push_back(Name(d) + ": " + stats.status().ToString());
        return out;
      }
      before[d] = FlattenCounters(stats.value());
    }
    start_ = Clock::now();
    end_ = start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
    std::vector<SlotResult> slots(kMembers);
    std::vector<std::thread> threads;
    for (int d = 0; d < kMembers; ++d) {
      threads.emplace_back([&, d]() { Slot(d, clients[d].get(), &slots[d]); });
    }
    for (std::thread& t : threads) t.join();
    out.start = start_;
    out.end = Clock::now();
    out.exhausted = exhausted_.load();
    for (int d = 0; d < kMembers; ++d) {
      auto stats = clients[d]->Stats();
      if (!stats.ok()) {
        out.errors.push_back(Name(d) + ": " + stats.status().ToString());
        continue;
      }
      AccumulateCounters(CounterDelta(before[d], FlattenCounters(stats.value())),
                         &out.stats_delta);
    }
    for (int d = 0; d < kMembers; ++d) {
      SlotResult& s = slots[d];
      out.attempted += s.attempted;
      out.failed += s.failed;
      out.errors.insert(out.errors.end(), s.errors.begin(), s.errors.end());
      out.reads.insert(out.reads.end(), s.reads.begin(), s.reads.end());
      if (harmony::Status alive = tier_->daemons[d]->CheckAlive(); !alive.ok()) {
        out.errors.push_back(alive.ToString());
      }
    }
    out.writes = std::move(writes_);
    return out;
  }

 private:
  struct SlotResult {
    std::vector<Read> reads;
    int64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    void Fail(std::string what) {
      ++failed;
      if (errors.size() < 5) errors.push_back(std::move(what));
    }
  };

  void Slot(int d, ServeClient* client, SlotResult* out) {
    const int young_src = (d + 2) % kMembers;
    const int old_src = (d + 1) % kMembers;
    size_t next_write = 0;
    int64_t young_done = -1;  // newest young-read index of young_src
    size_t old_next = 0;
    while (Clock::now() < end_ && !exhausted_.load()) {
      if (next_write >= streams_[d].size()) {
        exhausted_ = true;
        return;
      }
      Write w;
      w.request = streams_[d][next_write++];
      ++out->attempted;
      const Clock::time_point t0 = Clock::now();
      auto r = client->Plan(w.request);
      const Clock::time_point t1 = Clock::now();
      w.e2e_us = Micros(t1 - t0);
      w.done_s = Seconds(t1 - start_);
      if (!r.ok() || !r.value().status.ok() || r.value().cache_hit ||
          !r.value().filled_from.empty() ||
          r.value().fingerprint != harmony::serve::RequestFingerprint(w.request)) {
        out->Fail("write at " + Name(d) + ": " +
                  (r.ok() ? r.value().status.ToString() + " filled_from=" +
                                r.value().filled_from
                          : r.status().ToString()));
        if (!r.ok()) return;  // the connection is gone
        continue;
      }
      w.response = std::move(r).value();
      w.plan_bytes = PlanBytes(w.response);
      {
        std::lock_guard<std::mutex> lock(mu_);
        writes_[d].push_back(std::move(w));
        completed_[d] = writes_[d].size();
      }

      const Write* young = nullptr;
      const Write* old = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu_);
        const int64_t newest = static_cast<int64_t>(completed_[young_src]) - 1;
        if (newest > young_done) {
          young_done = newest;
          young = &writes_[young_src][static_cast<size_t>(newest)];
        }
        if (completed_[old_src] > old_next + kOldReadLag) {
          old = &writes_[old_src][old_next++];
        }
      }
      if (young != nullptr) ReadOnce(d, client, *young, /*old=*/false, out);
      if (old != nullptr) ReadOnce(d, client, *old, /*old=*/true, out);
    }
  }

  /// Refill check: the reply must come from the tier (never a search) and
  /// carry exactly the written plan.
  void ReadOnce(int d, ServeClient* client, const Write& target, bool old,
                SlotResult* out) {
    ++out->attempted;
    const Clock::time_point t0 = Clock::now();
    auto r = client->Plan(target.request);
    const Clock::time_point t1 = Clock::now();
    Read read;
    read.e2e_us = Micros(t1 - t0);
    read.done_s = Seconds(t1 - start_);
    read.old = old;
    if (!r.ok() || !r.value().status.ok() ||
        (r.value().filled_from != "peer" && r.value().filled_from != "disk") ||
        PlanBytes(r.value()) != target.plan_bytes) {
      out->Fail("refill at " + Name(d) + " differs from the write: " +
                (r.ok() ? r.value().status.ToString() + " filled_from=" +
                              r.value().filled_from
                        : r.status().ToString()));
      return;
    }
    read.filled_from = r.value().filled_from;
    out->reads.push_back(std::move(read));
  }

  const std::vector<std::vector<PlanRequest>>& streams_;
  Tier* tier_;
  Clock::time_point start_, end_;
  std::atomic<bool> exhausted_{false};
  std::mutex mu_;  // guards writes_ and completed_
  // Deques keep element addresses stable while other slots append.
  std::vector<std::deque<Write>> writes_;
  std::vector<size_t> completed_;
};

/// A request's model, profiled the way PlanService resolves it.
struct Profiled {
  harmony::model::SequentialModel model;
  harmony::profile::ProfileDb profiles;
};

std::unique_ptr<Profiled> Profile(const PlanRequest& request) {
  auto graph = harmony::serve::BuildModel(request.model);
  harmony::model::SequentialModel seq = harmony::model::Sequentialize(graph.value());
  const harmony::profile::Profiler profiler(request.machine.PlanningGpu(),
                                           harmony::profile::ProfilerOptions{});
  harmony::profile::ProfileDb db = profiler.Profile(seq);
  return std::make_unique<Profiled>(Profiled{std::move(seq), std::move(db)});
}

struct PhaseResult {
  ClosedLoop::Outcome loop;
  std::vector<double> setup_s;
  double peak_rss_mb = 0;
  double ping_rtt_us = 0;
  double memo_path_p50_us = 0;
  double memo_hit_ratio = 0;  // of the probe's frames
};

/// The closed loop never repeats a request at a member, so the reactor's
/// byte memo sits idle in it. Off the clock, after the loop, the traced run
/// re-requests some of member 0's newest writes (still in its cache) at
/// member 0, byte-identical each time: the first answers from the plan
/// cache and fills the memo, the rest take the memo path. Every reply must
/// carry the written plan.
void MemoProbe(const Tier& tier, const std::deque<Write>& writes,
               PhaseResult* out, RunResult* result) {
  ServeClient client;
  if (!client.ConnectUnix(tier.daemons[0]->SocketPath(Socket(0))).ok()) {
    result->Fail("memo probe: cannot connect to " + Name(0));
    return;
  }
  auto before = client.Stats();
  SpanLog spans;
  const size_t first = writes.size() - std::min<size_t>(writes.size(), kMemoKeys);
  for (size_t i = first; i < writes.size(); ++i) {
    for (int rep = 0; rep < kMemoRepeats; ++rep) {
      ++result->attempted;
      auto r = Timed(&spans, "memo", [&]() { return client.Plan(writes[i].request); });
      if (!r.ok() || !r.value().status.ok() || PlanBytes(r.value()) != writes[i].plan_bytes) {
        ++result->failed;
        result->Fail("memo probe reply differs from the write");
      }
    }
  }
  auto after = client.Stats();
  if (before.ok() && after.ok()) {
    const auto d = CounterDelta(FlattenCounters(before.value()),
                                FlattenCounters(after.value()));
    out->memo_hit_ratio = Ratio(Counter(d, "frontend.fastpath_hits"),
                                Counter(d, "frontend.frames_received"));
  }
  out->memo_path_p50_us = spans.P50("memo");
}

/// Times each layer of the read path from outside, off the clock, on the
/// prefix writes: JSON decode of the request envelope, fingerprint,
/// PlanCache lookup (an in-process cache holding their plans) and reply
/// encode.
void ReplayWire(const std::vector<const Write*>& prefix, SpanLog* spans,
                RunResult* result) {
  harmony::serve::PlanCache cache(64ull << 20);
  for (const Write* w : prefix) {
    auto plan = std::make_shared<harmony::serve::CachedPlan>();
    plan->canonical_request = harmony::serve::CanonicalRequestJson(w->request);
    plan->config = w->response.config;
    plan->estimate = w->response.estimate;
    plan->configs_explored = w->response.configs_explored;
    plan->configs_feasible = w->response.configs_feasible;
    plan->search_seconds = w->response.search_seconds;
    cache.Insert(w->response.fingerprint, plan);
  }
  for (const Write* w : prefix) {
    const std::string bytes = ServeClient::EncodePlanEnvelope(w->request);
    auto request = Timed(spans, "wire.decode", [&]() {
      auto env = harmony::json::Parse(bytes);
      return harmony::serve::PlanRequestFromJson(*env.value().Find("request"));
    });
    std::string canonical;
    const uint64_t fp = Timed(spans, "wire.fingerprint", [&]() {
      canonical = harmony::serve::CanonicalRequestJson(request.value());
      return harmony::json::Fnv1a(canonical);
    });
    auto plan = Timed(spans, "plan_cache.lookup",
                      [&]() { return cache.Lookup(fp, canonical); });
    if (plan == nullptr) {
      result->Fail("replayed lookup missed");
      continue;
    }
    Timed(spans, "wire.encode", [&]() {
      PlanResponse r;
      r.fingerprint = fp;
      r.cache_hit = true;
      r.config = plan->config;
      r.estimate = plan->estimate;
      r.configs_explored = plan->configs_explored;
      r.configs_feasible = plan->configs_feasible;
      r.search_seconds = plan->search_seconds;
      harmony::json::Value reply = harmony::json::Value::Object();
      reply.Set("type", "plan");
      reply.Set("response", harmony::serve::PlanResponseToJson(r));
      return reply.Dump();
    });
  }
}

/// Set-up, kSetupReps times and timed: generate the write streams (the
/// seeded requests and their fingerprints) and form the tier. Then runs the
/// closed loop on the last tier, measures a ping round trip and stops it.
PhaseResult RunPhase(const Options& options, const Speedometer& speed,
                     RunResult* result) {
  PhaseResult out;
  Tier tier;
  std::vector<std::vector<PlanRequest>> streams;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    streams = ColdStreams(options.seed, Members(),
                          static_cast<int>(200 * options.seconds) + 64);
    harmony::Status st = tier.Start(options);
    const Clock::time_point t1 = Clock::now();
    const double slowdown = speed.Slowdown(t0, t1);
    out.setup_s.push_back(Seconds(t1 - t0) /
                          (slowdown > 0 ? slowdown : speed.SlowdownAround(t1)));
    if (st.ok() && rep + 1 < kSetupReps) st = tier.Stop();
    if (!st.ok()) {
      result->Fail(st.ToString());
      return out;  // ~Tier kills whatever is still running
    }
  }
  ClosedLoop loop(streams, &tier);
  out.loop = loop.Run(options.seconds);
  SpanLog pings;
  ServeClient ping;
  if (ping.ConnectUnix(tier.daemons[0]->SocketPath(Socket(0))).ok()) {
    for (int i = 0; i < 500; ++i) {
      Timed(&pings, "ping", [&]() { return ping.Ping(); });
    }
  }
  ping.Close();
  out.ping_rtt_us = pings.P50("ping");
  if (options.trace && !out.loop.writes.empty() && !out.loop.writes[0].empty()) {
    MemoProbe(tier, out.loop.writes[0], &out, result);
  }
  out.peak_rss_mb = tier.PeakRssMb();
  if (harmony::Status st = tier.Stop(); !st.ok()) result->Fail(st.ToString());
  result->attempted += out.loop.attempted;
  result->failed += out.loop.failed;
  for (const std::string& e : out.loop.errors) result->Fail(e);
  return out;
}

}  // namespace

RunResult RunColdTier(const Options& options) {
  RunResult result;
  const Speedometer speed;
  PhaseResult base = RunPhase(options, speed, &result);
  const auto& writes = base.loop.writes;
  if (!result.errors.empty()) return result;
  for (int d = 0; d < kMembers; ++d) {
    if (writes[d].size() < kPrefix) {
      result.Fail(Name(d) + " completed only " +
                  std::to_string(writes[d].size()) + " writes");
      return result;
    }
  }

  // Deterministic quantities come from the first kPrefix writes of each
  // member, which every run completes: the same seed gives the same plans.
  std::vector<const Write*> prefix;
  for (int d = 0; d < kMembers; ++d) {
    for (int i = 0; i < kPrefix; ++i) prefix.push_back(&writes[d][i]);
  }

  // Output check: a seeded sample of the prefix re-searched in process must
  // give the plan the tier returned.
  SpanLog spans;
  std::map<std::string, std::unique_ptr<Profiled>> profiled;
  double est_log = 0;
  double explored = 0, feasible = 0;
  for (size_t i = 0; i < prefix.size(); ++i) {
    const Write& w = *prefix[i];
    est_log += std::log(w.request.minibatch / w.response.estimate.iteration_time);
    explored += w.response.configs_explored;
    feasible += w.response.configs_feasible;
    const bool checked = (i + options.seed) % 8 == 0;
    if (!checked && !options.trace) continue;
    const std::string key = harmony::serve::ModelSpecToJson(w.request.model).Dump();
    if (profiled.count(key) == 0) {
      profiled[key] = Timed(&spans, "profile", [&]() { return Profile(w.request); });
    }
    const Profiled& pm = *profiled[key];
    if (checked) {
      auto found = harmony::core::SearchConfiguration(
          pm.profiles, w.request.machine, w.request.mode, w.request.minibatch,
          w.request.flags, w.request.options);
      PlanResponse local;
      if (found.ok()) {
        local.config = found.value().best;
        local.estimate = found.value().best_estimate;
        local.configs_explored = found.value().configs_explored;
        local.configs_feasible = found.value().configs_feasible;
      }
      ++result.attempted;
      if (!found.ok() || PlanBytes(local) != w.plan_bytes) {
        ++result.failed;
        result.Fail("tier plan differs from an in-process search");
      }
    }
    if (!options.trace) continue;
    // Layer replays on the winning configuration, one call each.
    const auto& config = w.response.config;
    const harmony::hw::MachineSpec& machine = w.request.machine;
    harmony::core::PackingOptions packing;
    packing.capacity = static_cast<harmony::Bytes>(
        static_cast<double>(machine.MinUsableMemory()) *
        w.request.options.capacity_fraction);
    packing.min_packs = static_cast<int>(config.bwd_packs.size());
    Timed(&spans, "packing.pack", [&]() {
      auto bwd = harmony::core::BackwardPacks(config.u_bwd, pm.profiles, packing);
      harmony::core::PackingOptions fwd = packing;
      fwd.min_packs = std::max<int>(1, static_cast<int>(config.fwd_packs.size()));
      if (bwd.ok()) {
        auto f = harmony::core::ForwardPacks(config.u_fwd, bwd.value(), pm.profiles, fwd);
        (void)f;
      }
    });
    const auto graph = Timed(&spans, "task_graph.generate", [&]() {
      return harmony::core::GenerateHarmonyTaskGraph(
          config, w.request.mode, machine.num_gpus, w.request.minibatch,
          w.request.flags, pm.profiles);
    });
    const auto estimate = Timed(&spans, "estimator.estimate", [&]() {
      return harmony::core::RuntimeEstimator(pm.profiles, machine)
          .EstimateIteration(graph);
    });
    if (estimate.iteration_time != w.response.estimate.iteration_time) {
      result.Fail("replayed estimate differs from the tier's");
    }
  }

  if (options.trace) {
    ReplayWire(prefix, &spans, &result);
    // The owner's disk put (fsync'd) follows the reply's latency_seconds,
    // so it is replayed here: the same payloads into a scratch store.
    RunDir scratch(options.work_dir);
    harmony::cluster::DiskStoreOptions disk_options;
    disk_options.dir = scratch.File("store");
    auto store = harmony::cluster::DiskStore::Open(disk_options);
    for (const Write* w : prefix) {
      if (!store.ok()) break;
      harmony::serve::CachedPlan plan;
      plan.canonical_request = harmony::serve::CanonicalRequestJson(w->request);
      plan.config = w->response.config;
      plan.estimate = w->response.estimate;
      plan.configs_explored = w->response.configs_explored;
      plan.configs_feasible = w->response.configs_feasible;
      plan.search_seconds = w->response.search_seconds;
      Timed(&spans, "disk_store.put", [&]() {
        return store.value()->Put(w->response.fingerprint,
                                  harmony::serve::CachedPlanToJson(plan).Dump());
      });
    }
  }

  // Each latency is divided by the host slowdown around its completion.
  const Clock::time_point loop_start = base.loop.start;
  auto normalized = [&](double done_s, double us) {
    return us / speed.SlowdownAround(
                    loop_start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(done_s)));
  };
  std::vector<double> write_us, read_us, service_us, queue_ms, search_ms;
  double search_s = 0, all_explored = 0;
  size_t total_writes = 0;
  for (const auto& member : writes) {
    for (const Write& w : member) {
      ++total_writes;
      write_us.push_back(normalized(w.done_s, w.e2e_us));
      service_us.push_back(w.response.latency_seconds * 1e6);
      queue_ms.push_back((w.response.latency_seconds - w.response.search_seconds) * 1e3);
      search_ms.push_back(w.response.search_seconds * 1e3);
      search_s += w.response.search_seconds;
      all_explored += w.response.configs_explored;
    }
  }
  size_t from_disk = 0, old_reads = 0;
  for (const Read& r : base.loop.reads) {
    read_us.push_back(normalized(r.done_s, r.e2e_us));
    if (r.filled_from == "disk") ++from_disk;
    if (r.old) ++old_reads;
  }
  for (auto [samples, what] : {std::pair{&write_us, "cold_p90_ms"},
                               std::pair{&read_us, "refill_p90_us"}}) {
    if (!PercentileSupported(samples->size(), 90)) {
      result.Fail(std::string("too few samples for ") + what);
    }
  }
  const double write_p50_us = Percentile(write_us, 50);
  const double write_p90_us = Percentile(write_us, 90);
  const double read_p50_us = Percentile(read_us, 50);
  const double read_p90_us = Percentile(read_us, 90);
  const double slowdown = speed.Slowdown(base.loop.start, base.loop.end);

  NameTopPercentile("cold_write", write_us, &result);
  NameTopPercentile("refill", read_us, &result);
  const double setup_s = Percentile(base.setup_s, 50);
  const double plans_per_s = static_cast<double>(total_writes) /
                             Seconds(base.loop.end - base.loop.start) * slowdown;
  const double plan_samples = std::exp(est_log / static_cast<double>(prefix.size()));
  result.Named("cold_plans_per_s", plans_per_s, "1/s");
  result.Named("cold_p50_ms", write_p50_us / 1e3, "ms");
  result.Named("cold_p90_ms", write_p90_us / 1e3, "ms");
  result.Named("refill_p50_us", read_p50_us, "us");
  result.Named("refill_p90_us", read_p90_us, "us");
  result.Named("plan_est_samples_per_s", plan_samples, "samples/s");
  result.Named("setup_s", setup_s, "s");
  result.Named("peak_rss_mb", base.peak_rss_mb, "MB");
  result.Named("writes", static_cast<double>(total_writes), "count");
  result.Named("host_slowdown", slowdown, "ratio");
  if (options.trace) result.Named("memo_probe_hit_ratio", base.memo_hit_ratio, "ratio");
  result.Named("stream_exhausted", base.loop.exhausted ? 1 : 0, "bool");
  result.Named("reads", static_cast<double>(read_us.size()), "count");
  result.Named("old_reads", static_cast<double>(old_reads), "count");
  result.Named("reads_from_disk", static_cast<double>(from_disk), "count");
  const auto& d = base.loop.stats_delta;
  result.Named("plan_cache_evictions", Counter(d, "cache.evictions"), "count");
  result.Named("served_from_owner_disk", Counter(d, "cluster.cache_get_served_disk"),
               "count");

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = base.peak_rss_mb;
    e2e.ops_per_s = plans_per_s;
    e2e.lat_p50_us = write_p50_us;
    e2e.lat_p90_us = write_p90_us;
    e2e.plan_samples_per_s = plan_samples;
    EmitEndToEnd(e2e, &result);
    return result;
  }

  const double service_p50 = Percentile(service_us, 50);
  std::map<std::string, double> layer = {
      {"server.memo_hit_ratio",
       Ratio(Counter(d, "frontend.fastpath_hits"), Counter(d, "frontend.frames_received"))},
      {"server.memo_path_p50_us", base.memo_path_p50_us},
      {"server.ping_rtt_us", base.ping_rtt_us},
      {"wire.decode_us", spans.P50("wire.decode")},
      {"wire.fingerprint_us", spans.P50("wire.fingerprint")},
      {"plan_cache.lookup_us", spans.P50("plan_cache.lookup")},
      {"wire.encode_us", spans.P50("wire.encode")},
      {"server.frames_per_wakeup",
       Ratio(Counter(d, "frontend.frames_received"), Counter(d, "frontend.epoll_wakeups"))},
      {"plan_service.service_p50_us", service_p50},
      {"plan_cache.hit_ratio",
       Ratio(Counter(d, "cache.hits"), Counter(d, "cache.hits") + Counter(d, "cache.misses"))},
      {"plan_cache.evictions", Counter(d, "cache.evictions")},
      {"plan_service.queue_wait_ms_p50", Percentile(queue_ms, 50)},
      {"plan_service.rejected", Counter(d, "service.rejected")},
      {"profile.profile_ms", spans.P50("profile") / 1e3},
      {"search.search_ms_p50", Percentile(search_ms, 50)},
      {"search.configs_explored", explored},
      {"search.feasible_ratio", Ratio(feasible, explored)},
      {"search.us_per_candidate", Ratio(search_s * 1e6, all_explored)},
      {"packing.pack_us", spans.P50("packing.pack")},
      {"task_graph.generate_us", spans.P50("task_graph.generate")},
      {"estimator.estimate_us", spans.P50("estimator.estimate")},
      {"cluster.searches_per_new_key",
       Ratio(Counter(d, "service.searches"), static_cast<double>(total_writes))},
      {"cluster.peer_fill_ratio",
       Ratio(Counter(d, "cluster.peer_fill_hits"), Counter(d, "cluster.peer_fill_attempts"))},
      {"cluster.peer_fill_errors", Counter(d, "cluster.peer_fill_errors")},
      {"disk_store.puts", Counter(d, "cluster.disk.puts")},
      {"disk_store.put_us", spans.P50("disk_store.put")},
      {"cluster.served_from_disk_frac",
       Ratio(Counter(d, "cluster.cache_get_served_disk"),
             Counter(d, "cluster.cache_get_served_disk") +
                 Counter(d, "cluster.cache_get_served_memory"))},
      // Nothing is traced inside the loop: every layer figure comes from the
      // daemons' counters, the reply fields and the off-clock replays above,
      // so the measured run is also the traced one.
      {"trace.overhead_frac", 0.0},
      // Totals, not medians, so the parts add up: every write's client time
      // against its service time, one ping (frame + reactor + socket) and
      // one replayed disk put.
      {"trace.unattributed_frac",
       UnattributedFrac(std::accumulate(write_us.begin(), write_us.end(), 0.0),
                        {std::accumulate(service_us.begin(), service_us.end(), 0.0),
                         static_cast<double>(write_us.size()) *
                             (base.ping_rtt_us + spans.P50("disk_store.put"))})},
  };
  EmitPerLayer(layer, &result);
  result.spans = spans.Summary();
  return result;
}

}  // namespace perfbench
