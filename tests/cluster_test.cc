// Cluster tier tests (DESIGN.md §13): ring placement determinism and the
// rebalance bound virtual nodes buy, disk-store crash-safety (stray tmp
// cleanup, CRC mismatch degrading to a miss, atomic replace), restart-warm
// round trips that must be bit-identical to the original search, peer-fill
// through a real daemon's cache_get handler with single-flight coalescing,
// and TierClient owner routing with its one retry loop (shed backoff,
// re-dial after a restart, failover). Server-level sections boot real
// PlanServers over Unix sockets, the same wiring harmony_serve uses.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/disk_store.h"
#include "cluster/hash_ring.h"
#include "common/json.h"
#include "serve/client.h"
#include "serve/plan_service.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace harmony {
namespace {

namespace fs = std::filesystem;

using cluster::ClusterNode;
using cluster::ClusterOptions;
using cluster::ClusterStats;
using cluster::DiskStore;
using cluster::DiskStoreOptions;
using cluster::HashRing;
using cluster::TierClient;
using cluster::TierRetryOptions;
using serve::ModelSpec;
using serve::PlanRequest;
using serve::PlanResponse;
using serve::PlanServer;
using serve::PlanService;
using serve::ServeClient;
using serve::ServeOptions;
using serve::ServerOptions;

/// A request small enough that its cold search takes milliseconds: these
/// tests exercise the tier, not Algorithm 1.
PlanRequest TinyRequest(int minibatch = 4) {
  PlanRequest request;
  request.model.kind = ModelSpec::Kind::kTransformer;
  request.model.name = "tiny";
  request.model.transformer.name = "tiny";
  request.model.transformer.num_blocks = 4;
  request.model.transformer.hidden = 256;
  request.model.transformer.seq_len = 64;
  request.model.transformer.heads = 4;
  request.model.transformer.vocab = 512;
  request.minibatch = minibatch;
  request.options.u_fwd_max = 4;
  request.options.u_bwd_max = 4;
  return request;
}

std::string SockPath(const std::string& name) {
  return "/tmp/harmony_cluster_" + name + "_" + std::to_string(::getpid()) +
         ".sock";
}

/// A fresh per-test scratch directory, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path("/tmp/harmony_cluster_" + name + "_" +
             std::to_string(::getpid())) {
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

std::unique_ptr<DiskStore> MustOpen(const std::string& dir,
                                    uint64_t byte_cap = 0) {
  DiskStoreOptions options;
  options.dir = dir;
  options.byte_cap = byte_cap;
  auto store = DiskStore::Open(std::move(options));
  HARMONY_CHECK(store.ok()) << store.status();
  return std::move(store).value();
}

// --- HashRing -------------------------------------------------------------

std::vector<std::string> Members(int n) {
  std::vector<std::string> members;
  for (int i = 0; i < n; ++i) {
    members.push_back("unix:/run/h" + std::to_string(i) + ".sock");
  }
  return members;
}

TEST(HashRing, PlacementIsAPureFunctionOfTheMemberSet) {
  HashRing a, b;
  for (const std::string& m : Members(5)) a.AddNode(m);
  // Insertion order must not matter: add b's members reversed.
  const auto members = Members(5);
  for (auto it = members.rbegin(); it != members.rend(); ++it) b.AddNode(*it);
  for (uint64_t fp = 1; fp <= 10000; ++fp) {
    const uint64_t key = json::Fnv1a("key" + std::to_string(fp));
    ASSERT_EQ(a.OwnerOf(key), b.OwnerOf(key));
  }
}

TEST(HashRing, OwnerIsAlwaysAMember) {
  HashRing ring;
  std::set<std::string> members;
  for (const std::string& m : Members(4)) {
    ring.AddNode(m);
    members.insert(m);
  }
  for (uint64_t fp = 1; fp <= 1000; ++fp) {
    EXPECT_TRUE(members.count(ring.OwnerOf(json::Fnv1a(std::to_string(fp)))));
  }
}

TEST(HashRing, EmptyRingOwnsNothing) {
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.OwnerOf(42), "");
  EXPECT_TRUE(ring.RankedNodes(42).empty());
}

TEST(HashRing, RemovalRemapsOnlyTheDepartedMembersKeys) {
  // The consistent-hashing contract: when one of N members leaves, every
  // key owned by a survivor keeps its owner. (The departed member's ~1/N
  // of the space redistributes; nothing else moves.)
  HashRing ring;
  for (const std::string& m : Members(4)) ring.AddNode(m);
  const std::string departed = Members(4)[2];
  std::vector<std::pair<uint64_t, std::string>> before;
  int departed_owned = 0;
  for (uint64_t fp = 1; fp <= 10000; ++fp) {
    const uint64_t key = json::Fnv1a("key" + std::to_string(fp));
    const std::string owner = ring.OwnerOf(key);
    if (owner == departed) ++departed_owned;
    before.emplace_back(key, owner);
  }
  // Sanity: the load is roughly balanced, so the departed member owned a
  // nontrivial share (~2500 of 10000; accept a wide band).
  EXPECT_GT(departed_owned, 1000);
  EXPECT_LT(departed_owned, 5000);

  ring.RemoveNode(departed);
  for (const auto& [key, owner] : before) {
    if (owner == departed) {
      EXPECT_NE(ring.OwnerOf(key), departed);
    } else {
      EXPECT_EQ(ring.OwnerOf(key), owner) << "survivor's key moved";
    }
  }
}

TEST(HashRing, RendezvousFallbackWhenTheRingHasNoPoints) {
  // vnodes_per_node == 0 is degenerate but legal: ownership falls back to
  // rendezvous hashing, which is still deterministic and balanced.
  HashRing a(/*vnodes_per_node=*/0), b(/*vnodes_per_node=*/0);
  for (const std::string& m : Members(3)) {
    a.AddNode(m);
    b.AddNode(m);
  }
  for (uint64_t fp = 1; fp <= 1000; ++fp) {
    const uint64_t key = json::Fnv1a(std::to_string(fp));
    const std::string owner = a.OwnerOf(key);
    EXPECT_EQ(owner, b.OwnerOf(key));
    EXPECT_EQ(owner, a.RankedNodes(key).front());
  }
}

TEST(HashRing, RankedNodesIsADeterministicPermutation) {
  HashRing ring;
  std::set<std::string> members;
  for (const std::string& m : Members(5)) {
    ring.AddNode(m);
    members.insert(m);
  }
  bool saw_distinct_orders = false;
  std::vector<std::string> first;
  for (uint64_t fp = 1; fp <= 100; ++fp) {
    const uint64_t key = json::Fnv1a(std::to_string(fp));
    const std::vector<std::string> ranked = ring.RankedNodes(key);
    ASSERT_EQ(ranked.size(), members.size());
    EXPECT_EQ(std::set<std::string>(ranked.begin(), ranked.end()), members);
    ASSERT_EQ(ranked, ring.RankedNodes(key));  // stable per key
    if (first.empty()) {
      first = ranked;
    } else if (ranked != first) {
      saw_distinct_orders = true;  // different keys rank differently
    }
  }
  EXPECT_TRUE(saw_distinct_orders);
}

// --- DiskStore ------------------------------------------------------------

TEST(DiskStore, PutGetRoundTrip) {
  ScratchDir dir("roundtrip");
  auto store = MustOpen(dir.path);
  const std::string payload = "{\"canonical_request\":\"x\"}";
  ASSERT_TRUE(store->Put(0xabcdefull, payload).ok());
  auto got = store->Get(0xabcdefull);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value(), payload);
  EXPECT_TRUE(store->Get(0x999).status().code() == StatusCode::kNotFound);
  const auto stats = store->stats();
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, payload.size());
}

TEST(DiskStore, ReopenComesBackWarm) {
  ScratchDir dir("reopen");
  {
    auto store = MustOpen(dir.path);
    ASSERT_TRUE(store->Put(0x1111, "plan-one").ok());
    ASSERT_TRUE(store->Put(0x2222, "plan-two").ok());
  }
  auto store = MustOpen(dir.path);
  EXPECT_EQ(store->stats().entries, 2u);
  auto one = store->Get(0x1111);
  auto two = store->Get(0x2222);
  ASSERT_TRUE(one.ok() && two.ok());
  EXPECT_EQ(one.value(), "plan-one");
  EXPECT_EQ(two.value(), "plan-two");
}

TEST(DiskStore, CorruptEntryIsUnlinkedAndDegradesToAMiss) {
  ScratchDir dir("corrupt");
  auto store = MustOpen(dir.path);
  ASSERT_TRUE(store->Put(0xbeef, std::string(64, 'p')).ok());

  // Flip one payload byte on disk; the header CRC must catch it.
  const std::string file = dir.path + "/000000000000beef.plan";
  {
    std::FILE* f = std::fopen(file.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    std::fputc('q', f);
    std::fclose(f);
  }
  EXPECT_TRUE(store->Get(0xbeef).status().code() == StatusCode::kNotFound);
  EXPECT_EQ(store->stats().corrupt_dropped, 1u);
  EXPECT_EQ(store->stats().entries, 0u);
  EXPECT_FALSE(fs::exists(file)) << "corrupt entry must be unlinked";
}

TEST(DiskStore, StrayTmpFilesAreRemovedOnOpen) {
  ScratchDir dir("straytmp");
  {
    auto store = MustOpen(dir.path);
    ASSERT_TRUE(store->Put(0x42, "surviving-entry").ok());
  }
  // A crash mid-Put leaves `<name>.tmp.<pid>` behind; Open must sweep it
  // and must not index it as an entry.
  const std::string stray = dir.path + "/00000000000000aa.plan.tmp.12345";
  {
    std::FILE* f = std::fopen(stray.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("torn write", f);
    std::fclose(f);
  }
  auto store = MustOpen(dir.path);
  EXPECT_FALSE(fs::exists(stray));
  EXPECT_EQ(store->stats().entries, 1u);
  EXPECT_EQ(store->Get(0x42).value(), "surviving-entry");
}

TEST(DiskStore, ByteCapEvictsLeastRecentlyUsed) {
  ScratchDir dir("cap");
  auto store = MustOpen(dir.path, /*byte_cap=*/100);
  const std::string forty(40, 'x');
  ASSERT_TRUE(store->Put(1, forty).ok());
  ASSERT_TRUE(store->Put(2, forty).ok());
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_TRUE(store->Get(1).ok());
  ASSERT_TRUE(store->Put(3, forty).ok());  // 120 bytes > cap: evict 2
  EXPECT_EQ(store->stats().evictions, 1u);
  EXPECT_TRUE(store->Get(2).status().code() == StatusCode::kNotFound);
  EXPECT_TRUE(store->Get(1).ok());
  EXPECT_TRUE(store->Get(3).ok());
  EXPECT_LE(store->stats().bytes, 100u);
}

TEST(DiskStore, OverwriteKeepsOneEntry) {
  ScratchDir dir("overwrite");
  auto store = MustOpen(dir.path);
  ASSERT_TRUE(store->Put(7, "first").ok());
  ASSERT_TRUE(store->Put(7, "second").ok());
  EXPECT_EQ(store->stats().entries, 1u);
  EXPECT_EQ(store->Get(7).value(), "second");
}

// --- restart-warm round trip ---------------------------------------------

TEST(Cluster, RestartWarmServesBitIdenticalPlanWithoutASearch) {
  // First life: a standalone daemon (disk store, no peers) searches once;
  // StoreCompleted persists the plan.
  ScratchDir dir("warm");
  const PlanRequest request = TinyRequest();
  std::string first_config_bytes;
  {
    auto disk = MustOpen(dir.path);
    ClusterOptions copts;
    copts.disk = disk.get();
    ClusterNode node(copts);
    ServeOptions sopts;
    sopts.num_workers = 1;
    sopts.fill = &node;
    PlanService service(sopts);
    node.set_service(&service);
    const PlanResponse cold = service.Plan(request);
    ASSERT_TRUE(cold.status.ok()) << cold.status;
    EXPECT_EQ(cold.filled_from, "");
    first_config_bytes = serve::ConfigurationToJson(cold.config).Dump();
    EXPECT_EQ(service.stats().searches, 1u);
    EXPECT_EQ(disk->stats().puts, 1u);
  }

  // Second life: fresh service, fresh node, reopened directory. The first
  // repeat request must come from disk — zero searches — and the revived
  // configuration must serialize to the exact bytes the search produced.
  auto disk = MustOpen(dir.path);
  ClusterOptions copts;
  copts.disk = disk.get();
  ClusterNode node(copts);
  ServeOptions sopts;
  sopts.num_workers = 1;
  sopts.fill = &node;
  PlanService service(sopts);
  node.set_service(&service);
  const PlanResponse warm = service.Plan(request);
  ASSERT_TRUE(warm.status.ok()) << warm.status;
  EXPECT_EQ(warm.filled_from, "disk");
  EXPECT_EQ(service.stats().searches, 0u);
  EXPECT_EQ(service.stats().filled, 1u);
  EXPECT_EQ(serve::ConfigurationToJson(warm.config).Dump(),
            first_config_bytes);
  EXPECT_EQ(node.stats().disk_hits, 1u);
  // A disk revival must not rewrite its own file.
  EXPECT_EQ(disk->stats().puts, 0u);

  // Third request in the same life: now it's a plain memory cache hit.
  const PlanResponse memory = service.Plan(request);
  EXPECT_TRUE(memory.cache_hit);
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

// --- peer-fill through a real daemon -------------------------------------

/// Boots a tier-member daemon: PlanService + ClusterNode wired exactly as
/// harmony_serve wires them (fill source, cache_get extension, stats block).
struct TierDaemon {
  TierDaemon(const std::string& name, std::vector<std::string> members,
             std::string self, DiskStore* disk = nullptr) {
    cluster_options.members = std::move(members);
    cluster_options.self = std::move(self);
    cluster_options.disk = disk;
    node = std::make_unique<ClusterNode>(cluster_options);
    ServeOptions sopts;
    sopts.num_workers = 2;
    sopts.fill = node.get();
    service = std::make_unique<PlanService>(sopts);
    node->set_service(service.get());
    ServerOptions options;
    options.unix_path = SockPath(name);
    path = options.unix_path;
    options.extension = [this](const std::string& type,
                               const json::Value& envelope) {
      return node->HandleEnvelope(type, envelope);
    };
    options.stats_extension = [this]() { return node->StatsJson(); };
    server = std::make_unique<PlanServer>(service.get(), options);
    const Status listening = server->Listen();
    HARMONY_CHECK(listening.ok()) << listening;
    server->Start();
  }
  ~TierDaemon() {
    server->Stop();
    ::unlink(path.c_str());
  }

  ClusterOptions cluster_options;
  std::unique_ptr<ClusterNode> node;
  std::unique_ptr<PlanService> service;
  std::unique_ptr<PlanServer> server;
  std::string path;
};

/// A tiny request whose fingerprint the ring assigns to `owner` — scans
/// minibatch sizes until placement lands there (placement is deterministic,
/// so the scan is too).
PlanRequest RequestOwnedBy(const std::string& owner,
                           const std::vector<std::string>& members) {
  HashRing ring;
  for (const std::string& m : members) ring.AddNode(m);
  for (int mb = 1; mb <= 64; ++mb) {
    const PlanRequest request = TinyRequest(mb);
    if (ring.OwnerOf(serve::RequestFingerprint(request)) == owner) {
      return request;
    }
  }
  HARMONY_CHECK(false) << "no tiny request hashed to " << owner;
  return TinyRequest();
}

TEST(Cluster, PrePolicyDiskEntryIsAMissAndSearchesAgain) {
  // A plan written before every configuration carried its residency table
  // (empty "policy") no longer decodes: the node counts a disk miss and the
  // service searches, never serving a table-less plan.
  ScratchDir dir("prepolicy");
  const PlanRequest request = TinyRequest();
  const uint64_t fp = serve::RequestFingerprint(request);
  auto disk = MustOpen(dir.path);
  {
    ClusterOptions copts;
    copts.disk = disk.get();
    ClusterNode node(copts);
    ServeOptions sopts;
    sopts.num_workers = 1;
    sopts.fill = &node;
    PlanService service(sopts);
    node.set_service(&service);
    ASSERT_TRUE(service.Plan(request).status.ok());
  }
  auto stored = disk->Get(fp);
  ASSERT_TRUE(stored.ok()) << stored.status();
  std::string old = stored.value();
  const size_t at = old.find("\"policy\":\"");
  ASSERT_NE(at, std::string::npos) << old;
  const size_t start = at + std::string("\"policy\":\"").size();
  old.erase(start, old.find('"', start) - start);
  ASSERT_TRUE(disk->Put(fp, old).ok());

  ClusterOptions copts;
  copts.disk = disk.get();
  ClusterNode node(copts);
  ServeOptions sopts;
  sopts.num_workers = 1;
  sopts.fill = &node;
  PlanService service(sopts);
  node.set_service(&service);
  const PlanResponse replanned = service.Plan(request);
  ASSERT_TRUE(replanned.status.ok()) << replanned.status;
  EXPECT_EQ(replanned.filled_from, "");
  EXPECT_EQ(service.stats().searches, 1u);
  EXPECT_EQ(node.stats().disk_misses, 1u);
  EXPECT_EQ(replanned.config.policy.num_layers(),
            replanned.config.bwd_packs.back().hi + 1);
}

TEST(Cluster, PeerFillResolvesAMissWithExactlyOneSearchAcrossTheTier) {
  const std::string owner_ep = "unix:" + SockPath("pf_owner");
  const std::string other_ep = "unix:" + SockPath("pf_other");
  const std::vector<std::string> members = {owner_ep, other_ep};
  TierDaemon owner("pf_owner", members, owner_ep);
  TierDaemon other("pf_other", members, other_ep);

  const PlanRequest request = RequestOwnedBy(owner_ep, members);

  // Warm the owner (the one search the tier will ever run for this key).
  const PlanResponse cold = owner.service->Plan(request);
  ASSERT_TRUE(cold.status.ok()) << cold.status;

  // A miss on the non-owner resolves via cache_get to the owner.
  const PlanResponse filled = other.service->Plan(request);
  ASSERT_TRUE(filled.status.ok()) << filled.status;
  EXPECT_EQ(filled.filled_from, "peer");
  EXPECT_EQ(serve::ConfigurationToJson(filled.config).Dump(),
            serve::ConfigurationToJson(cold.config).Dump());

  // Exactly one search across the tier; the counters prove where the plan
  // traveled: non-owner dialed once and hit, owner answered from memory.
  EXPECT_EQ(owner.service->stats().searches, 1u);
  EXPECT_EQ(other.service->stats().searches, 0u);
  EXPECT_EQ(other.service->stats().filled, 1u);
  const ClusterStats requester = other.node->stats();
  EXPECT_EQ(requester.peer_fill_attempts, 1u);
  EXPECT_EQ(requester.peer_fill_hits, 1u);
  const ClusterStats answerer = owner.node->stats();
  EXPECT_EQ(answerer.cache_get_served_memory, 1u);
  EXPECT_EQ(answerer.cache_get_misses, 0u);
}

TEST(Cluster, TierWideMissFallsBackToOneLocalSearch) {
  const std::string owner_ep = "unix:" + SockPath("miss_owner");
  const std::string other_ep = "unix:" + SockPath("miss_other");
  const std::vector<std::string> members = {owner_ep, other_ep};
  TierDaemon owner("miss_owner", members, owner_ep);
  TierDaemon other("miss_other", members, other_ep);

  // Nothing is warm anywhere: the owner answers "miss" (it must never
  // search on a peer's behalf) and the requester runs the one search.
  const PlanRequest request = RequestOwnedBy(owner_ep, members);
  const PlanResponse response = other.service->Plan(request);
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.filled_from, "");
  EXPECT_EQ(other.service->stats().searches, 1u);
  EXPECT_EQ(owner.service->stats().searches, 0u);
  EXPECT_EQ(owner.node->stats().cache_get_misses, 1u);
  EXPECT_EQ(other.node->stats().peer_fill_misses, 1u);
}

TEST(Cluster, PeerFetchIsSingleFlightPerFingerprint) {
  const std::string owner_ep = "unix:" + SockPath("sf_owner");
  const std::string other_ep = "unix:" + SockPath("sf_other");
  const std::vector<std::string> members = {owner_ep, other_ep};
  TierDaemon owner("sf_owner", members, owner_ep);

  const PlanRequest request = RequestOwnedBy(owner_ep, members);
  ASSERT_TRUE(owner.service->Plan(request).status.ok());

  // A standalone requester node whose peer fetch stalls briefly inside its
  // single-flight slot: four racing TryFills must share ONE round trip.
  ClusterOptions copts;
  copts.members = members;
  copts.self = other_ep;
  copts.stall_peer_fetch_for_test = 0.1;
  ClusterNode node(copts);

  const uint64_t fp = serve::RequestFingerprint(request);
  const std::string canonical = serve::CanonicalRequestJson(request);
  std::vector<std::thread> racers;
  std::vector<std::shared_ptr<const serve::CachedPlan>> plans(4);
  std::vector<std::string> sources(4);
  for (int i = 0; i < 4; ++i) {
    racers.emplace_back([&, i]() {
      plans[i] = node.TryFill(fp, canonical, request, &sources[i]);
    });
  }
  for (std::thread& t : racers) t.join();

  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(plans[i], nullptr) << "racer " << i;
    EXPECT_EQ(sources[i], "peer");
    EXPECT_EQ(plans[i]->canonical_request, canonical);
  }
  const ClusterStats stats = node.stats();
  EXPECT_EQ(stats.peer_fill_attempts, 1u) << "single-flight leaked a dial";
  EXPECT_EQ(stats.peer_fill_coalesced, 3u);
  EXPECT_EQ(stats.peer_fill_hits, 1u);
  EXPECT_EQ(owner.node->stats().cache_get_served_memory, 1u);
}

TEST(Cluster, PeerFillPersistsToTheLocalDiskStore) {
  // A plan fetched from a peer lands in the requester's warm store too, so
  // the *requester's* next restart is warm.
  const std::string owner_ep = "unix:" + SockPath("pd_owner");
  const std::string other_ep = "unix:" + SockPath("pd_other");
  const std::vector<std::string> members = {owner_ep, other_ep};
  ScratchDir dir("peerdisk");
  auto disk = MustOpen(dir.path);
  TierDaemon owner("pd_owner", members, owner_ep);
  TierDaemon other("pd_other", members, other_ep, disk.get());

  const PlanRequest request = RequestOwnedBy(owner_ep, members);
  ASSERT_TRUE(owner.service->Plan(request).status.ok());
  const PlanResponse filled = other.service->Plan(request);
  ASSERT_TRUE(filled.status.ok());
  EXPECT_EQ(filled.filled_from, "peer");
  EXPECT_EQ(disk->stats().puts, 1u);
  auto payload = disk->Get(serve::RequestFingerprint(request));
  ASSERT_TRUE(payload.ok()) << payload.status();
  auto parsed = json::Parse(payload.value());
  ASSERT_TRUE(parsed.ok());
  auto plan = serve::CachedPlanFromJson(parsed.value());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan.value().canonical_request,
            serve::CanonicalRequestJson(request));
}

// --- TierClient -----------------------------------------------------------

TEST(Cluster, TierClientRoutesToTheRingOwner) {
  const std::string a_ep = "unix:" + SockPath("tc_a");
  const std::string b_ep = "unix:" + SockPath("tc_b");
  const std::vector<std::string> members = {a_ep, b_ep};
  TierDaemon a("tc_a", members, a_ep);
  TierDaemon b("tc_b", members, b_ep);

  TierClient tier(members);
  const PlanRequest request = RequestOwnedBy(a_ep, members);
  EXPECT_EQ(tier.OwnerOf(request), a_ep);
  auto response = tier.Plan(request);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response.value().status.ok());
  // The owner searched; the other daemon never saw the request.
  EXPECT_EQ(a.service->stats().searches, 1u);
  EXPECT_EQ(b.service->stats().admitted, 0u);
}

TEST(Cluster, TierClientFailsOverPastADeadMember) {
  const std::string dead_ep = "unix:" + SockPath("tc_dead");
  const std::string live_ep = "unix:" + SockPath("tc_live");
  const std::vector<std::string> members = {dead_ep, live_ep};
  TierDaemon live("tc_live", members, live_ep);
  // dead_ep is never booted.

  TierClient tier(members);
  const PlanRequest request = RequestOwnedBy(dead_ep, members);
  auto response = tier.Plan(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response.value().status.ok());
  EXPECT_EQ(live.service->stats().searches, 1u);
}

TEST(Cluster, TierClientReportsTheLastEndpointWhenAllMembersAreDown) {
  const std::vector<std::string> members = {"unix:" + SockPath("down_a"),
                                            "unix:" + SockPath("down_b")};
  TierClient tier(members);
  auto response = tier.Plan(TinyRequest());
  ASSERT_FALSE(response.ok());
  // Satellite (b): transport errors carry errno text and the endpoint.
  EXPECT_NE(response.status().message().find("no tier member answered"),
            std::string::npos)
      << response.status();
  EXPECT_NE(response.status().message().find("unix:"), std::string::npos)
      << response.status();
}

TEST(Cluster, TierClientStopsShedRetriesAtTheRequestDeadline) {
  // A member whose admission budget is held by a stalled search sheds every
  // plan request until the stall drains.
  const std::string path = SockPath("tc_shed");
  ServeOptions sopts;
  sopts.num_workers = 1;
  sopts.max_pending = 1;
  sopts.retry_after_ms = 20;
  sopts.stall_for_test = 0.6;
  PlanService service(sopts);
  ServerOptions options;
  options.unix_path = path;
  PlanServer server(&service, options);
  ASSERT_TRUE(server.Listen().ok());
  server.Start();
  auto inflight = service.Submit(TinyRequest(4));

  // The retry budget alone would outlast the stall (50 retries of >= 20ms),
  // so only the deadline can end the call early.
  TierRetryOptions retry;
  retry.max_retries = 50;
  TierClient tier({"unix:" + path}, retry);
  PlanRequest bounded = TinyRequest(8);
  bounded.deadline_ms = 100;
  const auto start = std::chrono::steady_clock::now();
  const auto response = tier.Plan(bounded);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response.value().status.code(), StatusCode::kResourceExhausted)
      << response.value().status;
  // No sleep crosses the deadline; the slack covers the last round trip.
  EXPECT_LT(waited, 0.1 + 0.05);

  inflight.wait();
  server.Stop();
  ::unlink(path.c_str());
}

TEST(Cluster, TierClientRidesOutLoadShedOnOneMember) {
  // One daemon is a one-member tier: a shed reply is backed off (honoring
  // the server's retry-after floor) and retried until the worker frees up.
  const std::string path = SockPath("tc_rideout");
  ServeOptions sopts;
  sopts.num_workers = 1;
  sopts.max_pending = 1;
  sopts.retry_after_ms = 20;
  sopts.stall_for_test = 0.3;  // holds the admission budget
  PlanService service(sopts);
  ServerOptions options;
  options.unix_path = path;
  PlanServer server(&service, options);
  ASSERT_TRUE(server.Listen().ok());
  server.Start();
  auto inflight = service.Submit(TinyRequest(4));

  TierRetryOptions retry;
  retry.max_retries = 20;
  retry.seed = 0x72657472;  // fixed: deterministic backoff schedule
  TierClient tier({"unix:" + path}, retry);
  const auto response = tier.Plan(TinyRequest(8));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response.value().status.ok()) << response.value().status;
  EXPECT_GE(tier.retries(), 1);

  EXPECT_TRUE(inflight.get().status.ok());
  server.Stop();
  ::unlink(path.c_str());
}

TEST(Cluster, TierClientRedialsARestartedDaemonOnOneMember) {
  // The pooled connection outlives the daemon it was dialed to; the next
  // plan hits the closed peer, re-dials the same endpoint and lands on the
  // daemon that replaced it.
  const std::string ep = "unix:" + SockPath("tc_redial");
  auto daemon = std::make_unique<TierDaemon>("tc_redial",
                                             std::vector<std::string>{ep}, ep);
  TierClient tier({ep});
  ASSERT_TRUE(tier.Plan(TinyRequest()).ok());
  daemon.reset();
  daemon = std::make_unique<TierDaemon>("tc_redial",
                                        std::vector<std::string>{ep}, ep);

  const auto response = tier.Plan(TinyRequest());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response.value().status.ok()) << response.value().status;
  EXPECT_EQ(tier.retries(), 1);
  EXPECT_EQ(daemon->service->stats().admitted, 1u);
}

TEST(Cluster, TierClientRedialsARestartedOwnerInsteadOfFailingOver) {
  // A stale pooled connection to the owner is not a dead owner: the request
  // must reach the restarted owner, never the member that does not own it.
  const std::string a_ep = "unix:" + SockPath("so_a");
  const std::string b_ep = "unix:" + SockPath("so_b");
  const std::vector<std::string> members = {a_ep, b_ep};
  auto a = std::make_unique<TierDaemon>("so_a", members, a_ep);
  TierDaemon b("so_b", members, b_ep);

  TierClient tier(members);
  const PlanRequest request = RequestOwnedBy(a_ep, members);
  const auto first = tier.Plan(request);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first.value().status.ok()) << first.value().status;
  EXPECT_EQ(a->service->stats().admitted, 1u);

  a.reset();  // the owner restarts on the same socket
  a = std::make_unique<TierDaemon>("so_a", members, a_ep);
  const auto second = tier.Plan(request);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second.value().status.ok()) << second.value().status;
  EXPECT_EQ(a->service->stats().admitted, 1u);
  EXPECT_EQ(b.service->stats().admitted, 0u);
  EXPECT_EQ(tier.retries(), 1);
}

// --- stats plumbing -------------------------------------------------------

TEST(Cluster, StatsEnvelopeCarriesTheClusterBlock) {
  const std::string self_ep = "unix:" + SockPath("stats_self");
  ScratchDir dir("statsdisk");
  auto disk = MustOpen(dir.path);
  TierDaemon daemon("stats_self", {self_ep}, self_ep, disk.get());
  ASSERT_TRUE(daemon.service->Plan(TinyRequest()).status.ok());

  ServeClient probe;
  ASSERT_TRUE(probe.ConnectUnix(daemon.path).ok());
  auto stats = probe.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  const json::Value* cluster = stats.value().Find("cluster");
  ASSERT_NE(cluster, nullptr) << "stats envelope lost \"cluster\"";
  std::string self;
  ASSERT_TRUE(json::ReadString(*cluster, "self", &self).ok());
  EXPECT_EQ(self, self_ep);
  const json::Value* disk_block = cluster->Find("disk");
  ASSERT_NE(disk_block, nullptr);
  int64_t puts = -1;
  ASSERT_TRUE(json::ReadInt64(*disk_block, "puts", &puts).ok());
  EXPECT_EQ(puts, 1);
  int64_t filled = -1;
  const json::Value* service = stats.value().Find("service");
  ASSERT_NE(service, nullptr);
  ASSERT_TRUE(json::ReadInt64(*service, "filled", &filled).ok());
  EXPECT_EQ(filled, 0);
}

// --- endpoint parsing -----------------------------------------------------

TEST(Cluster, ParseEndpointAcceptsBothTransportsAndRejectsGarbage) {
  auto u = cluster::ParseEndpoint("unix:/run/h0.sock");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.value().kind, cluster::Endpoint::Kind::kUnix);
  EXPECT_EQ(u.value().path, "/run/h0.sock");
  auto t = cluster::ParseEndpoint("tcp:127.0.0.1:7077");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().kind, cluster::Endpoint::Kind::kTcp);
  EXPECT_EQ(t.value().host, "127.0.0.1");
  EXPECT_EQ(t.value().port, 7077);
  EXPECT_FALSE(cluster::ParseEndpoint("http://nope").ok());
  EXPECT_FALSE(cluster::ParseEndpoint("tcp:noport").ok());
  EXPECT_FALSE(cluster::ParseEndpoint("").ok());
  auto list = cluster::ParseMemberList("unix:/a.sock,tcp:h:9");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().size(), 2u);
  // Empty elements (trailing commas, shell artifacts) are skipped, not
  // errors; a list with no real members is.
  auto trailing = cluster::ParseMemberList("unix:/a.sock,,unix:/b.sock,");
  ASSERT_TRUE(trailing.ok());
  EXPECT_EQ(trailing.value().size(), 2u);
  EXPECT_FALSE(cluster::ParseMemberList("").ok());
  EXPECT_FALSE(cluster::ParseMemberList(",,").ok());
}

}  // namespace
}  // namespace harmony
