// PlanService behaviour tests: cache hits return identical plans, identical
// concurrent requests collapse to one search (single-flight), an over-budget
// admission queue load-sheds explicitly, deadlines trip cooperative
// cancellation, and shutdown drains without dropping a future. The last
// section drives the whole stack end-to-end over a Unix-domain socket.

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/plan_service.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace harmony {
namespace {

using serve::ModelSpec;
using serve::PlanRequest;
using serve::PlanResponse;
using serve::PlanService;
using serve::ServeOptions;

/// A request small enough that its cold search takes milliseconds: the tests
/// below exercise the service machinery, not Algorithm 1.
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

std::string ConfigBytes(const PlanResponse& response) {
  return serve::ConfigurationToJson(response.config).Dump();
}

TEST(PlanService, CacheHitReturnsIdenticalPlan) {
  PlanService service(ServeOptions{});
  const PlanResponse cold = service.Plan(TinyRequest());
  ASSERT_TRUE(cold.status.ok()) << cold.status;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.configs_explored, 0);

  const PlanResponse warm = service.Plan(TinyRequest());
  ASSERT_TRUE(warm.status.ok()) << warm.status;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  EXPECT_EQ(ConfigBytes(warm), ConfigBytes(cold));

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.searches, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(PlanService, BypassCacheForcesAFreshSearch) {
  PlanService service(ServeOptions{});
  ASSERT_TRUE(service.Plan(TinyRequest()).status.ok());
  PlanRequest bypass = TinyRequest();
  bypass.bypass_cache = true;
  const PlanResponse r = service.Plan(bypass);
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(service.stats().searches, 2u);
}

TEST(PlanService, StampedeCollapsesToOneSearch) {
  ServeOptions options;
  options.num_workers = 4;
  options.stall_for_test = 0.05;  // hold the search so submits overlap it
  PlanService service(options);

  constexpr int kCallers = 8;
  std::vector<std::shared_future<PlanResponse>> futures;
  futures.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    futures.push_back(service.Submit(TinyRequest()));
  }
  std::string first;
  for (auto& f : futures) {
    const PlanResponse r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status;
    if (first.empty()) first = ConfigBytes(r);
    EXPECT_EQ(ConfigBytes(r), first);
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.searches, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.coalesced, static_cast<uint64_t>(kCallers - 1));
}

TEST(PlanService, OverBudgetQueueRejectsExplicitly) {
  ServeOptions options;
  options.num_workers = 1;
  options.max_pending = 1;
  options.retry_after_ms = 75;
  options.stall_for_test = 0.2;
  PlanService service(options);

  // First request occupies the whole admission budget...
  auto admitted = service.Submit(TinyRequest(4));
  // ...so a *different* request (distinct fingerprint — identical ones would
  // coalesce) must be rejected immediately, not queued or hung.
  const PlanResponse rejected = service.Plan(TinyRequest(8));
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected.retry_after_ms, 75);
  EXPECT_LT(rejected.latency_seconds, 0.1);  // rejected without waiting

  const PlanResponse first = admitted.get();
  EXPECT_TRUE(first.status.ok()) << first.status;
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.admitted, 1u);
}

TEST(PlanService, DeadlineExpiredBeforeSearchStarts) {
  ServeOptions options;
  options.num_workers = 1;
  options.stall_for_test = 0.15;  // longer than the deadline below
  PlanService service(options);

  PlanRequest request = TinyRequest();
  request.deadline_ms = 20;
  const PlanResponse r = service.Plan(request);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.searches, 0u);  // never started a doomed search
}

TEST(PlanService, DoesNotCoalesceOntoShorterDeadlineInflight) {
  ServeOptions options;
  options.num_workers = 2;
  options.stall_for_test = 0.15;  // holds the first search past its deadline
  PlanService service(options);

  PlanRequest doomed = TinyRequest();
  doomed.deadline_ms = 20;
  auto first = service.Submit(doomed);
  // Identical content but no deadline: attaching to the doomed in-flight
  // would hand this caller the other request's DeadlineExceeded. It must be
  // admitted as its own search instead.
  auto second = service.Submit(TinyRequest());

  EXPECT_EQ(first.get().status.code(), StatusCode::kDeadlineExceeded);
  const PlanResponse ok = second.get();
  EXPECT_TRUE(ok.status.ok()) << ok.status;
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.admitted, 2u);
}

TEST(PlanService, ShutdownDrainsEveryAdmittedRequest) {
  ServeOptions options;
  options.num_workers = 2;
  options.stall_for_test = 0.05;
  PlanService service(options);

  std::vector<std::shared_future<PlanResponse>> futures;
  for (int mb = 1; mb <= 4; ++mb) {
    futures.push_back(service.Submit(TinyRequest(mb)));
  }
  service.Shutdown(/*cancel_inflight=*/false);
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().status.ok()) << f.get().status;
  }
  // The service no longer admits.
  const PlanResponse refused = service.Plan(TinyRequest(9));
  EXPECT_EQ(refused.status.code(), StatusCode::kUnavailable);
}

TEST(PlanService, ShutdownWithCancelTripsQueuedRequests) {
  ServeOptions options;
  options.num_workers = 1;  // serialize, so later submits sit in the queue
  options.stall_for_test = 0.1;
  PlanService service(options);

  std::vector<std::shared_future<PlanResponse>> futures;
  for (int mb = 1; mb <= 3; ++mb) {
    futures.push_back(service.Submit(TinyRequest(mb)));
  }
  service.Shutdown(/*cancel_inflight=*/true);
  int ok = 0, cancelled = 0;
  for (auto& f : futures) {
    const PlanResponse r = f.get();  // every future is satisfied regardless
    if (r.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kCancelled) << r.status;
      ++cancelled;
    }
  }
  EXPECT_EQ(ok + cancelled, 3);
  EXPECT_GE(cancelled, 1);  // at least the queued tail was cancelled
}

TEST(PlanService, CacheOnAndOffProduceIdenticalPlans) {
  ServeOptions cached;
  ServeOptions uncached;
  uncached.enable_cache = false;
  PlanService with_cache(cached);
  PlanService without_cache(uncached);

  const PlanResponse a = with_cache.Plan(TinyRequest());
  const PlanResponse b = without_cache.Plan(TinyRequest());
  const PlanResponse b2 = without_cache.Plan(TinyRequest());
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_FALSE(b2.cache_hit);  // no cache to hit
  EXPECT_EQ(ConfigBytes(a), ConfigBytes(b));
  EXPECT_EQ(ConfigBytes(b), ConfigBytes(b2));
  EXPECT_EQ(without_cache.stats().searches, 2u);
}

TEST(PlanService, ProfileMemoIsBoundedLru) {
  PlanService service(ServeOptions{});
  // More distinct custom models than the memo holds: each block count is a
  // different spec, hence a different profile.
  const int distinct = static_cast<int>(PlanService::kProfileMemoEntries) + 8;
  auto request_for = [](int blocks) {
    PlanRequest r = TinyRequest();
    r.model.transformer.num_blocks = blocks;
    return r;
  };
  for (int blocks = 1; blocks <= distinct; ++blocks) {
    ASSERT_TRUE(service.Plan(request_for(blocks)).status.ok()) << blocks;
    EXPECT_LE(service.profile_memo_stats().entries,
              PlanService::kProfileMemoEntries);
  }
  serve::ProfileMemoStats memo = service.profile_memo_stats();
  EXPECT_EQ(memo.entries, PlanService::kProfileMemoEntries);
  EXPECT_EQ(memo.misses, static_cast<uint64_t>(distinct));
  EXPECT_EQ(memo.hits, 0u);

  // A repeated recent spec hits (bypass the plan cache so the request
  // resolves its model again); the oldest spec was evicted and re-profiles.
  PlanRequest recent = request_for(distinct);
  recent.bypass_cache = true;
  ASSERT_TRUE(service.Plan(recent).status.ok());
  memo = service.profile_memo_stats();
  EXPECT_EQ(memo.hits, 1u);
  EXPECT_EQ(memo.misses, static_cast<uint64_t>(distinct));

  PlanRequest oldest = request_for(1);
  oldest.bypass_cache = true;
  ASSERT_TRUE(service.Plan(oldest).status.ok());
  memo = service.profile_memo_stats();
  EXPECT_EQ(memo.misses, static_cast<uint64_t>(distinct) + 1);
  EXPECT_EQ(memo.entries, PlanService::kProfileMemoEntries);
}

// ---------------------------------------------------------------------------
// End-to-end over a Unix-domain socket
// ---------------------------------------------------------------------------

TEST(ServeE2e, PlanPingStatsShutdownOverUnixSocket) {
  const std::string socket_path =
      "/tmp/harmony_serve_test_" + std::to_string(::getpid()) + ".sock";
  ServeOptions service_options;
  service_options.num_workers = 2;
  PlanService service(service_options);
  serve::ServerOptions server_options;
  server_options.unix_path = socket_path;
  serve::PlanServer server(&service, server_options);
  ASSERT_TRUE(server.Listen().ok());
  server.Start();

  serve::ServeClient client;
  ASSERT_TRUE(client.ConnectUnix(socket_path).ok());
  EXPECT_TRUE(client.Ping().ok());

  const auto cold = client.Plan(TinyRequest());
  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_TRUE(cold.value().status.ok()) << cold.value().status;
  EXPECT_FALSE(cold.value().cache_hit);

  const auto warm = client.Plan(TinyRequest());
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm.value().cache_hit);
  EXPECT_EQ(ConfigBytes(warm.value()), ConfigBytes(cold.value()));

  const auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  const json::Value* svc = stats.value().Find("service");
  ASSERT_NE(svc, nullptr);
  int64_t completed = 0;
  EXPECT_TRUE(json::ReadInt64(*svc, "completed", &completed).ok());
  EXPECT_GE(completed, 2);

  // Concurrent clients on their own connections all get served.
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&socket_path]() {
      serve::ServeClient c;
      ASSERT_TRUE(c.ConnectUnix(socket_path).ok());
      const auto r = c.Plan(TinyRequest());
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(r.value().status.ok());
      EXPECT_TRUE(r.value().cache_hit);
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_TRUE(client.Shutdown().ok());
  server.Wait();  // the daemon drains and stops
  EXPECT_TRUE(server.stopped());

  // The endpoint is gone: a fresh connect must fail cleanly.
  serve::ServeClient late;
  EXPECT_FALSE(late.ConnectUnix(socket_path).ok());
  ::unlink(socket_path.c_str());
}

}  // namespace
}  // namespace harmony
