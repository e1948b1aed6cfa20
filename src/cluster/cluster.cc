#include "cluster/cluster.h"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/backoff.h"
#include "serve/plan_cache.h"

namespace harmony::cluster {

namespace {

using Clock = std::chrono::steady_clock;

/// Owner-side cache_get reply: {"type":"cache_get","hit":...}; on a hit the
/// envelope carries where it was found and the canonical plan payload.
std::string CacheGetReply(bool hit, const char* source,
                          const serve::CachedPlan* plan) {
  json::Value v = json::Value::Object();
  v.Set("type", "cache_get");
  v.Set("hit", hit);
  if (hit) {
    v.Set("source", source);
    v.Set("plan", serve::CachedPlanToJson(*plan));
  }
  return v.Dump();
}

}  // namespace

// ---------------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------------

Result<Endpoint> ParseEndpoint(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = spec.substr(5);
    if (ep.path.empty()) {
      return Status::InvalidArgument("endpoint '" + spec + "': empty path");
    }
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    ep.kind = Endpoint::Kind::kTcp;
    const std::string rest = spec.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      return Status::InvalidArgument("endpoint '" + spec +
                                     "': want tcp:<host>:<port>");
    }
    ep.host = rest.substr(0, colon);
    char* end = nullptr;
    const long port = std::strtol(rest.c_str() + colon + 1, &end, 10);
    if (end != rest.c_str() + rest.size() || port < 1 || port > 65535) {
      return Status::InvalidArgument("endpoint '" + spec + "': bad port");
    }
    ep.port = static_cast<int>(port);
    return ep;
  }
  return Status::InvalidArgument("endpoint '" + spec +
                                 "': want unix:<path> or tcp:<host>:<port>");
}

Result<std::vector<std::string>> ParseMemberList(const std::string& csv) {
  std::vector<std::string> members;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string spec = csv.substr(start, comma - start);
    if (!spec.empty()) {
      HARMONY_RETURN_IF_ERROR(ParseEndpoint(spec).status());
      members.push_back(spec);
    }
    start = comma + 1;
  }
  if (members.empty()) {
    return Status::InvalidArgument("member list is empty");
  }
  return members;
}

Status ConnectEndpoint(const std::string& spec, serve::ServeClient* client) {
  auto ep = ParseEndpoint(spec);
  HARMONY_RETURN_IF_ERROR(ep.status());
  return ep.value().kind == Endpoint::Kind::kUnix
             ? client->ConnectUnix(ep.value().path)
             : client->ConnectTcp(ep.value().host, ep.value().port);
}

// ---------------------------------------------------------------------------
// ClusterNode
// ---------------------------------------------------------------------------

ClusterNode::ClusterNode(ClusterOptions options)
    : options_(std::move(options)), rng_(0), epoch_(Clock::now()) {
  for (const std::string& member : options_.members) ring_.AddNode(member);
}

ClusterNode::~ClusterNode() = default;

void ClusterNode::EmitEvent(trace::EventKind kind, uint64_t fingerprint,
                            int64_t bytes) {
  if (options_.bus == nullptr || !options_.bus->active()) return;
  trace::Event e;
  e.kind = kind;
  e.lane = trace::Lane::kServe;
  e.device = -1;
  e.time = std::chrono::duration<double>(Clock::now() - epoch_).count();
  e.task = static_cast<int>(fingerprint & 0x7FFFFFFFu);
  e.bytes = bytes;
  std::lock_guard<std::mutex> lock(trace_mu_);
  options_.bus->Emit(e);
}

std::shared_ptr<const serve::CachedPlan> ClusterNode::DiskLookup(
    uint64_t fingerprint, const std::string& canonical) {
  if (options_.disk == nullptr) return nullptr;
  auto payload = options_.disk->Get(fingerprint);
  if (!payload.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.disk_misses;
    return nullptr;
  }
  auto parsed = json::Parse(payload.value());
  if (!parsed.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.disk_misses;
    return nullptr;
  }
  auto plan = serve::CachedPlanFromJson(parsed.value());
  if (!plan.ok() || plan.value().canonical_request != canonical) {
    // A decodable envelope for the wrong request (fingerprint collision on
    // the file name) — like the memory cache, never serve it.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.disk_misses;
    return nullptr;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.disk_hits;
  }
  EmitEvent(trace::EventKind::kClusterDiskHit, fingerprint,
            static_cast<int64_t>(payload.value().size()));
  return std::make_shared<const serve::CachedPlan>(std::move(plan).value());
}

void ClusterNode::PersistPlan(uint64_t fingerprint,
                              const serve::CachedPlan& plan) {
  if (options_.disk == nullptr) return;
  (void)options_.disk->Put(fingerprint, serve::CachedPlanToJson(plan).Dump());
}

std::shared_ptr<const serve::CachedPlan> ClusterNode::FetchFromOwner(
    const std::string& owner, uint64_t fingerprint,
    const std::string& canonical) {
  serve::CacheGetRequest get;
  get.fingerprint = fingerprint;
  get.canonical_request = canonical;
  const std::string envelope = serve::CacheGetRequestToJson(get).Dump();

  Peer* peer;
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    auto& slot = peers_[owner];
    if (slot == nullptr) slot = std::make_unique<Peer>();
    peer = slot.get();
  }

  std::lock_guard<std::mutex> peer_lock(peer->mu);
  for (int attempt = 0;; ++attempt) {
    Status transport = Status::Ok();
    if (!peer->client.connected()) {
      transport = ConnectEndpoint(owner, &peer->client);
    }
    if (transport.ok()) {
      auto reply = peer->client.RoundTripEncoded(envelope, "cache_get");
      if (reply.ok()) {
        bool hit = false;
        if (!json::ReadBool(reply.value(), "hit", &hit).ok() || !hit) {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.peer_fill_misses;
          return nullptr;
        }
        const json::Value* plan_json = reply.value().Find("plan");
        if (plan_json != nullptr) {
          auto plan = serve::CachedPlanFromJson(*plan_json);
          if (plan.ok() && plan.value().canonical_request == canonical) {
            return std::make_shared<const serve::CachedPlan>(
                std::move(plan).value());
          }
        }
        // A malformed or mismatched hit is as good as a miss — never let a
        // confused owner plant a wrong plan here.
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.peer_fill_misses;
        return nullptr;
      }
      transport = reply.status();
      peer->client.Close();  // re-dial on the next attempt
    }
    if (attempt >= common::kPeerFetchRetries) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.peer_fill_errors;
      return nullptr;
    }
    double delay;
    {
      std::lock_guard<std::mutex> lock(mu_);
      delay = common::kPeerFetchBackoff.DelayFor(attempt, &rng_);
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
}

std::shared_ptr<const serve::CachedPlan> ClusterNode::TryFill(
    uint64_t fingerprint, const std::string& canonical,
    const serve::PlanRequest& request, std::string* source) {
  (void)request;
  // Disk first: a restarted daemon's warm path, and cheaper than a peer
  // round trip when both would hit.
  if (auto plan = DiskLookup(fingerprint, canonical)) {
    *source = "disk";
    return plan;
  }

  const std::string owner = ring_.OwnerOf(fingerprint);
  if (owner.empty() || owner == options_.self) return nullptr;

  // Single-flight: one owner round trip per fingerprint; late arrivals wait
  // for the leader's outcome instead of dialing again.
  std::shared_ptr<PendingFetch> pending;
  bool leader = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = fetching_.find(fingerprint);
    if (it == fetching_.end()) {
      pending = std::make_shared<PendingFetch>();
      fetching_.emplace(fingerprint, pending);
      leader = true;
      ++stats_.peer_fill_attempts;
    } else {
      pending = it->second;
      ++stats_.peer_fill_coalesced;
    }
    if (!leader) {
      pending->cv.wait(lock, [&pending]() { return pending->done; });
      if (pending->plan != nullptr) *source = "peer";
      return pending->plan;
    }
  }

  if (options_.stall_peer_fetch_for_test > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.stall_peer_fetch_for_test));
  }
  std::shared_ptr<const serve::CachedPlan> plan =
      FetchFromOwner(owner, fingerprint, canonical);
  if (plan != nullptr) {
    // Warm the local disk store so a restart of this daemon doesn't need
    // the peer again.
    PersistPlan(fingerprint, *plan);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.peer_fill_hits;
    }
    EmitEvent(trace::EventKind::kClusterPeerFill, fingerprint,
              static_cast<int64_t>(canonical.size()));
    *source = "peer";
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending->plan = plan;
    pending->done = true;
    fetching_.erase(fingerprint);
  }
  pending->cv.notify_all();
  return plan;
}

void ClusterNode::StoreCompleted(
    uint64_t fingerprint,
    const std::shared_ptr<const serve::CachedPlan>& plan) {
  PersistPlan(fingerprint, *plan);
}

std::string ClusterNode::HandleEnvelope(const std::string& type,
                                        const json::Value& envelope) {
  if (type != "cache_get") return "";
  auto get = serve::CacheGetRequestFromJson(envelope);
  if (!get.ok()) {
    json::Value v = json::Value::Object();
    v.Set("type", "error");
    v.Set("error", "bad cache_get: " + get.status().ToString());
    return v.Dump();
  }
  const uint64_t fp = get.value().fingerprint;
  const std::string& canonical = get.value().canonical_request;

  // Memory first, then disk; strictly lookup-only (no search, no forward),
  // so a tier-wide miss terminates here with an honest "miss".
  if (service_ != nullptr) {
    if (auto plan = service_->PeekCache(fp, canonical)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.cache_get_served_memory;
      return CacheGetReply(true, "memory", plan.get());
    }
  }
  if (auto plan = DiskLookup(fp, canonical)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.cache_get_served_disk;
    return CacheGetReply(true, "disk", plan.get());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.cache_get_misses;
  }
  return CacheGetReply(false, "", nullptr);
}

ClusterStats ClusterNode::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

json::Value ClusterNode::StatsJson() const {
  const ClusterStats s = stats();
  json::Value v = json::Value::Object();
  v.Set("self", options_.self);
  v.Set("members", static_cast<int64_t>(options_.members.size()));
  v.Set("peer_fill_attempts", static_cast<int64_t>(s.peer_fill_attempts));
  v.Set("peer_fill_hits", static_cast<int64_t>(s.peer_fill_hits));
  v.Set("peer_fill_misses", static_cast<int64_t>(s.peer_fill_misses));
  v.Set("peer_fill_errors", static_cast<int64_t>(s.peer_fill_errors));
  v.Set("peer_fill_coalesced", static_cast<int64_t>(s.peer_fill_coalesced));
  v.Set("disk_hits", static_cast<int64_t>(s.disk_hits));
  v.Set("disk_misses", static_cast<int64_t>(s.disk_misses));
  v.Set("cache_get_served_memory",
        static_cast<int64_t>(s.cache_get_served_memory));
  v.Set("cache_get_served_disk",
        static_cast<int64_t>(s.cache_get_served_disk));
  v.Set("cache_get_misses", static_cast<int64_t>(s.cache_get_misses));
  if (options_.disk != nullptr) {
    const DiskStoreStats d = options_.disk->stats();
    json::Value disk = json::Value::Object();
    disk.Set("hits", static_cast<int64_t>(d.hits));
    disk.Set("misses", static_cast<int64_t>(d.misses));
    disk.Set("puts", static_cast<int64_t>(d.puts));
    disk.Set("evictions", static_cast<int64_t>(d.evictions));
    disk.Set("corrupt_dropped", static_cast<int64_t>(d.corrupt_dropped));
    disk.Set("entries", static_cast<int64_t>(d.entries));
    disk.Set("bytes", static_cast<int64_t>(d.bytes));
    v.Set("disk", std::move(disk));
  }
  return v;
}

// ---------------------------------------------------------------------------
// TierClient
// ---------------------------------------------------------------------------

TierClient::TierClient(std::vector<std::string> members,
                       TierRetryOptions retry)
    : members_(std::move(members)), retry_(retry) {
  for (const std::string& member : members_) ring_.AddNode(member);
}

Result<serve::ServeClient*> TierClient::ClientFor(const std::string& member) {
  auto& slot = clients_[member];
  if (slot == nullptr) slot = std::make_unique<serve::ServeClient>();
  if (!slot->connected()) {
    HARMONY_RETURN_IF_ERROR(ConnectEndpoint(member, slot.get()));
  }
  return slot.get();
}

std::string TierClient::OwnerOf(const serve::PlanRequest& request) const {
  return ring_.OwnerOf(serve::RequestFingerprint(request));
}

Result<serve::PlanResponse> TierClient::Plan(
    const serve::PlanRequest& request) {
  const uint64_t fp = serve::RequestFingerprint(request);
  // Owner first, then the rendezvous ranking: every client walks dead
  // daemons in the same order, so failover traffic stays concentrated.
  std::vector<std::string> candidates;
  const std::string owner = ring_.OwnerOf(fp);
  if (!owner.empty()) candidates.push_back(owner);
  for (const std::string& member : ring_.RankedNodes(fp)) {
    if (member != owner) candidates.push_back(member);
  }
  if (candidates.empty()) {
    return Status::FailedPrecondition("tier has no members");
  }
  // Dead-member errors name which endpoint failed (the ServeClient layer
  // already appends errno detail).
  auto annotate = [](const std::string& member, const Status& s) {
    return Status(s.code(), "member " + member + ": " + s.message());
  };
  Status last = Status::Ok();
  Rng rng(retry_.seed);
  int attempt = 0;
  const Clock::time_point deadline =
      request.deadline_ms > 0
          ? Clock::now() + std::chrono::milliseconds(request.deadline_ms)
          : Clock::time_point::max();
  // Sleeps before a retry of the same member; false when the budget is
  // spent or the sleep would cross the request deadline.
  auto back_off = [&](double floor_seconds) {
    if (attempt >= retry_.max_retries) return false;
    const double delay = std::max(
        common::kPlanRetryBackoff.DelayFor(attempt, &rng), floor_seconds);
    if (Clock::now() + std::chrono::duration<double>(delay) >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    ++attempt;
    ++retries_;
    return true;
  };
  for (const std::string& member : candidates) {
    for (;;) {
      auto client = ClientFor(member);
      if (!client.ok()) {
        last = annotate(member, client.status());
        break;  // failed dial: next member
      }
      auto response = client.value()->Plan(request);
      if (!response.ok()) {
        client.value()->Close();
        last = annotate(member, response.status());
        // A peer close means the member restarted or drained since this
        // connection was pooled: re-dial it rather than hand its plan to a
        // member that does not own it.
        if (response.status().code() == StatusCode::kNotFound &&
            back_off(0.0)) {
          continue;
        }
        break;  // any other transport error: next member
      }
      // A load-shed reply is transient and the member is still the right
      // home for the plan, so retry it; failing over would just stampede
      // the next member.
      if (response.value().status.code() == StatusCode::kResourceExhausted &&
          back_off(response.value().retry_after_ms / 1000.0)) {
        continue;
      }
      return response;
    }
  }
  return Status(last.code(),
                "no tier member answered (last: " + last.message() + ")");
}

Result<json::Value> TierClient::StatsFrom(const std::string& member) {
  auto client = ClientFor(member);
  HARMONY_RETURN_IF_ERROR(client.status());
  return client.value()->Stats();
}

int TierClient::ShutdownAll() {
  int reached = 0;
  for (const std::string& member : members_) {
    auto client = ClientFor(member);
    if (client.ok() && client.value()->Shutdown().ok()) ++reached;
  }
  return reached;
}

}  // namespace harmony::cluster
