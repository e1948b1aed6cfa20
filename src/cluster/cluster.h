#ifndef HARMONY_CLUSTER_CLUSTER_H_
#define HARMONY_CLUSTER_CLUSTER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/json.h"
#include "common/status.h"
#include "cluster/disk_store.h"
#include "cluster/hash_ring.h"
#include "serve/client.h"
#include "serve/plan_service.h"
#include "trace/trace.h"

namespace harmony::cluster {

/// A daemon address in the tier's member list: "unix:<path>" or
/// "tcp:<host>:<port>". The *string* is the ring identity — every member
/// and client must spell an endpoint identically or placement diverges.
struct Endpoint {
  enum class Kind : uint8_t { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  // kUnix
  std::string host;  // kTcp
  int port = 0;      // kTcp
};

Result<Endpoint> ParseEndpoint(const std::string& spec);

/// Splits a comma-separated member list ("unix:/a.sock,tcp:host:9)" style)
/// and validates each entry.
Result<std::vector<std::string>> ParseMemberList(const std::string& csv);

/// Dials `spec` on `client` (whichever transport the endpoint names).
Status ConnectEndpoint(const std::string& spec, serve::ServeClient* client);

struct ClusterOptions {
  /// This daemon's own endpoint string (must appear in `members`).
  std::string self;
  /// Every daemon in the tier, including self. Order is irrelevant (the
  /// ring sorts by hash) but spelling must match across the deployment.
  std::vector<std::string> members;
  /// The warm store (borrowed; may be nullptr for a diskless member).
  DiskStore* disk = nullptr;
  /// Optional observer (borrowed) for kClusterPeerFill / kClusterDiskHit.
  trace::TraceBus* bus = nullptr;
  /// Test hook: a peer fetch holds its single-flight slot for this long
  /// before dialing, so tests can pile waiters onto one fetch
  /// deterministically. Zero in production.
  TimeSec stall_peer_fetch_for_test = 0;
};

struct ClusterStats {
  uint64_t peer_fill_attempts = 0;  // owner fetches actually dialed
  uint64_t peer_fill_hits = 0;      // plans resolved from a peer
  uint64_t peer_fill_misses = 0;    // owner answered "don't have it"
  uint64_t peer_fill_errors = 0;    // transport/protocol failures (final)
  uint64_t peer_fill_coalesced = 0; // waiters attached to an in-flight fetch
  uint64_t disk_hits = 0;           // plans revived from the disk store
  uint64_t disk_misses = 0;
  uint64_t cache_get_served_memory = 0;  // owner-side: answered from PlanCache
  uint64_t cache_get_served_disk = 0;    // owner-side: answered from disk
  uint64_t cache_get_misses = 0;         // owner-side: answered "miss"
};

/// One daemon's membership in the cooperative cache tier (DESIGN.md §13).
/// Implements serve::PlanFillSource — PlanService consults it on a cache
/// miss before searching — and the owner-side "cache_get" envelope handler
/// that PlanServer's extension hook routes here.
///
/// Fill order on a local miss: disk store first (cheapest, and a restarted
/// daemon's warm path), then — if this daemon is not the fingerprint's ring
/// owner — a cache_get round trip to the owner with backoff retries. A peer
/// hit is persisted to the local disk store on the way back, so the next
/// restart of *this* daemon is warm too. Peer fetches are single-flight
/// per fingerprint: PlanService's own single-flight already coalesces
/// identical requests onto one worker, but distinct deadline groups of the
/// same fingerprint admit separately — this layer makes sure even those
/// share one round trip, and waiters share its outcome.
///
/// The owner side never searches and never forwards: cache_get answers
/// strictly from memory (PlanCache::Peek) or disk, so a tier-wide miss
/// cannot recurse or stampede Algorithm 1 — the requester falls back to
/// exactly one local search, which is the tier-wide total.
class ClusterNode : public serve::PlanFillSource {
 public:
  explicit ClusterNode(ClusterOptions options);
  ~ClusterNode() override;

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Late-bound because of construction order: ClusterNode must exist
  /// before PlanService (ServeOptions::fill), but the cache_get handler
  /// needs the service. Call once, before the server starts.
  void set_service(serve::PlanService* service) { service_ = service; }

  // --- serve::PlanFillSource -----------------------------------------------
  std::shared_ptr<const serve::CachedPlan> TryFill(
      uint64_t fingerprint, const std::string& canonical,
      const serve::PlanRequest& request, std::string* source) override;
  void StoreCompleted(
      uint64_t fingerprint,
      const std::shared_ptr<const serve::CachedPlan>& plan) override;

  /// ServerOptions::extension adapter: serves "cache_get", returns "" for
  /// anything else. Thread-safe (called on reactor loop threads).
  std::string HandleEnvelope(const std::string& type,
                             const json::Value& envelope);

  /// ServerOptions::stats_extension adapter: the "cluster" stats block
  /// (tier counters + disk store counters + membership).
  json::Value StatsJson() const;

  ClusterStats stats() const;
  const HashRing& ring() const { return ring_; }
  /// Ring owner of a fingerprint (by member endpoint string).
  std::string OwnerOf(uint64_t fingerprint) const {
    return ring_.OwnerOf(fingerprint);
  }

 private:
  struct PendingFetch {
    bool done = false;
    std::shared_ptr<const serve::CachedPlan> plan;  // null = miss/failure
    std::condition_variable cv;
  };

  /// One cache_get round trip to `owner` with up to kPeerFetchRetries
  /// re-dials on kPeerFetchBackoff (common/backoff.h). Its own short loop,
  /// not TierClient's: a peer fetch is never shed and never fails over.
  /// Returns the plan (verified against `canonical`) or null.
  std::shared_ptr<const serve::CachedPlan> FetchFromOwner(
      const std::string& owner, uint64_t fingerprint,
      const std::string& canonical);

  std::shared_ptr<const serve::CachedPlan> DiskLookup(
      uint64_t fingerprint, const std::string& canonical);
  void PersistPlan(uint64_t fingerprint, const serve::CachedPlan& plan);
  void EmitEvent(trace::EventKind kind, uint64_t fingerprint, int64_t bytes);

  ClusterOptions options_;
  HashRing ring_;
  serve::PlanService* service_ = nullptr;

  mutable std::mutex mu_;  // guards stats + single-flight map + rng
  std::unordered_map<uint64_t, std::shared_ptr<PendingFetch>> fetching_;
  ClusterStats stats_;
  Rng rng_;

  /// Pooled peer connections, one per owner endpoint, serialized per peer
  /// (cache_get round trips are short; a per-peer mutex keeps the pool
  /// trivial and the frame protocol unconfused).
  struct Peer {
    std::mutex mu;
    serve::ServeClient client;
  };
  std::mutex peers_mu_;  // guards the map shape only
  std::unordered_map<std::string, std::unique_ptr<Peer>> peers_;

  std::mutex trace_mu_;  // serializes bus emissions
  const std::chrono::steady_clock::time_point epoch_;
};

/// TierClient's retry budget for one Plan() call. Declared outside the
/// class so `TierClient(members)` can default it.
struct TierRetryOptions {
  /// Retries one call may spend, shared by load-shed replies and re-dials
  /// after a peer close; the delays follow common::kPlanRetryBackoff.
  int max_retries = 3;
  uint64_t seed = 0;  // jitter seed (fix it for deterministic tests)
};

/// Client-side owner routing over the same member list: picks each
/// request's daemon from the fingerprint's ring placement, walking the
/// rendezvous ranking past dead daemons. One pooled ServeClient per
/// endpoint. It is the one retry loop for plan requests: a caller of a
/// single daemon uses a one-member tier. Not thread-safe (one TierClient
/// per load-generator thread, like ServeClient).
class TierClient {
 public:
  explicit TierClient(std::vector<std::string> members,
                      TierRetryOptions retry = {});

  /// Owner-routed plan. Walks the members owner first, then the rest of the
  /// rendezvous ranking, with one retry budget for the whole call:
  ///  - a load-shed response (in-band ResourceExhausted) is retried on the
  ///    same member after max(backoff, the server's retry-after hint);
  ///  - a peer close (kNotFound: the daemon restarted or drained, leaving
  ///    the pooled connection stale) re-dials the same member after a
  ///    backoff, because it is still the right home for the plan;
  ///  - a failed dial, any other transport error, or a peer close with no
  ///    retry left fails over to the next member.
  /// No sleep crosses the request's deadline_ms: the last shed response
  /// surfaces instead. Other in-band planning failures return as-is.
  /// Transport errors name the member endpoint that failed.
  Result<serve::PlanResponse> Plan(const serve::PlanRequest& request);

  /// The member Plan() would try first for this request.
  std::string OwnerOf(const serve::PlanRequest& request) const;

  /// Retries Plan() performed over this client's lifetime (shed backoffs
  /// and re-dials).
  int64_t retries() const { return retries_; }

  /// Stats envelope from one named member.
  Result<json::Value> StatsFrom(const std::string& member);

  /// Asks every reachable member to shut down; returns the count reached.
  int ShutdownAll();

 private:
  Result<serve::ServeClient*> ClientFor(const std::string& member);

  std::vector<std::string> members_;
  HashRing ring_;
  TierRetryOptions retry_;
  int64_t retries_ = 0;
  std::unordered_map<std::string, std::unique_ptr<serve::ServeClient>> clients_;
};

}  // namespace harmony::cluster

#endif  // HARMONY_CLUSTER_CLUSTER_H_
