// harmony_client: CLI client and closed-loop load generator for
// harmony_serve. One-shot planning looks like harmony_plan, except the
// search runs in the daemon (and repeat requests hit its plan cache):
//
//   ./build/examples/harmony_client GPT2 pp 64 --unix=/tmp/harmony.sock
//
// As a load generator, each client thread opens its own connection and
// issues requests back-to-back, reporting throughput and client-observed
// latency percentiles. By default (--retries=0) daemon rejections under
// backpressure are counted, not retried — the point is to observe the
// admission policy; --retries=N instead rides them out with jittered
// backoff (honoring the server's retry-after hint) and re-dials a daemon
// that closed the connection, the way a production caller would:
//
//   ./build/examples/harmony_client GPT2 pp 64 --unix=/tmp/h.sock
//       --repeat=100 --threads=8 --json
//
// Control verbs: --ping (liveness), --stats (daemon counters), --shutdown
// (graceful drain).
//
// Against a cache tier (DESIGN.md §13), --peers=<ep>,<ep>,... replaces
// --unix/--tcp: each request is routed to its fingerprint's ring owner, the
// same placement the daemons use, so a tier-wide working set shards across
// the members with no coordination. A dead member is failed over; --retries
// applies here too, with the same default of 0:
//
//   ./build/examples/harmony_client GPT2 pp 64
//       --peers=unix:/run/h0.sock,unix:/run/h1.sock,unix:/run/h2.sock
//
// Plan requests go through one cluster::TierClient in both modes: --unix or
// --tcp is a one-member tier.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "serve/client.h"

namespace {

int Usage() {
  std::cerr
      << "usage: harmony_client <model> <dp|pp> <minibatch>\n"
         "                      (--unix=<path> | --tcp=<port> |\n"
         "                       --peers=<ep>,<ep>,...) [--host=<ip>]\n"
         "                      [--gpus=N] [--repeat=N] [--threads=N]\n"
         "                      [--deadline-ms=N] [--retries=N] [--run]\n"
         "                      [--bypass-cache] [--json]\n"
         "   or: harmony_client (--ping | --stats | --shutdown)\n"
         "                      (--unix=<path> | --tcp=<port>) [--host=<ip>]\n"
         "   or: harmony_client (--stats | --shutdown) --peers=<ep>,...\n"
         "  --peers    owner-route each request across a cache tier; endpoints\n"
         "             are unix:<path> or tcp:<host>:<port>, spelled exactly\n"
         "             as the daemons' --peers list\n"
         "  --retries  per request: retry load-shed replies and re-dial a\n"
         "             daemon that closed the connection (default 0; applies\n"
         "             to --peers too)\n"
         "  model: BERT-Large | BERT96 | GPT2 | GPT2-Medium | VGG416 |\n"
         "         ResNet1K | GPT2-<n>B\n";
  return 2;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace harmony;
  using Clock = std::chrono::steady_clock;

  std::string unix_path, host = "127.0.0.1", peers_csv;
  int tcp_port = -1;
  std::string model_name, mode_str;
  int minibatch = 0, gpus = 4, repeat = 1, threads = 1, deadline_ms = 0;
  int retries = 0;
  bool run = false, bypass_cache = false, as_json = false;
  bool do_ping = false, do_stats = false, do_shutdown = false;

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--unix=", 7) == 0) {
      unix_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--tcp=", 6) == 0) {
      tcp_port = std::atoi(argv[i] + 6);
    } else if (std::strncmp(argv[i], "--host=", 7) == 0) {
      host = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--peers=", 8) == 0) {
      peers_csv = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--gpus=", 7) == 0) {
      gpus = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      repeat = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      deadline_ms = std::atoi(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--retries=", 10) == 0) {
      retries = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--run") == 0) {
      run = true;
    } else if (std::strcmp(argv[i], "--bypass-cache") == 0) {
      bypass_cache = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else if (std::strcmp(argv[i], "--ping") == 0) {
      do_ping = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      do_stats = true;
    } else if (std::strcmp(argv[i], "--shutdown") == 0) {
      do_shutdown = true;
    } else if (argv[i][0] == '-') {
      return Usage();
    } else if (positional == 0) {
      model_name = argv[i];
      ++positional;
    } else if (positional == 1) {
      mode_str = argv[i];
      ++positional;
    } else if (positional == 2) {
      minibatch = std::atoi(argv[i]);
      ++positional;
    } else {
      return Usage();
    }
  }
  if (unix_path.empty() && tcp_port < 0 && peers_csv.empty()) return Usage();
  if (!peers_csv.empty() && (!unix_path.empty() || tcp_port >= 0)) {
    std::cerr << "harmony_client: --peers replaces --unix/--tcp\n";
    return Usage();
  }

  // One member list for both modes: --unix/--tcp is a one-member tier.
  std::vector<std::string> members;
  if (!peers_csv.empty()) {
    auto parsed = cluster::ParseMemberList(peers_csv);
    if (!parsed.ok()) {
      std::cerr << "harmony_client: " << parsed.status() << "\n";
      return 1;
    }
    members = std::move(parsed).value();
  } else if (!unix_path.empty()) {
    members.push_back("unix:" + unix_path);
  } else {
    members.push_back("tcp:" + host + ":" + std::to_string(tcp_port));
  }

  if (!peers_csv.empty() && (do_ping || do_stats || do_shutdown)) {
    cluster::TierClient tier(members);
    if (do_ping || do_stats) {
      for (const std::string& member : members) {
        auto stats = tier.StatsFrom(member);
        if (!stats.ok()) {
          std::cerr << member << ": " << stats.status() << "\n";
          continue;
        }
        std::cout << member << " " << stats.value().Dump() << "\n";
      }
    }
    if (do_shutdown) {
      const int reached = tier.ShutdownAll();
      std::cout << reached << "/" << members.size() << " members draining\n";
      return reached == static_cast<int>(members.size()) ? 0 : 1;
    }
    return 0;
  }

  if (do_ping || do_stats || do_shutdown) {
    serve::ServeClient client;
    const Status st = cluster::ConnectEndpoint(members.front(), &client);
    if (!st.ok()) {
      std::cerr << "connect failed: " << st << "\n";
      return 1;
    }
    if (do_ping) {
      const Status pong = client.Ping();
      if (!pong.ok()) {
        std::cerr << "ping failed: " << pong << "\n";
        return 1;
      }
      std::cout << "pong\n";
    }
    if (do_stats) {
      const auto stats = client.Stats();
      if (!stats.ok()) {
        std::cerr << "stats failed: " << stats.status() << "\n";
        return 1;
      }
      std::cout << stats.value().Dump() << "\n";
    }
    if (do_shutdown) {
      const Status bye = client.Shutdown();
      if (!bye.ok()) {
        std::cerr << "shutdown failed: " << bye << "\n";
        return 1;
      }
      std::cout << "daemon draining\n";
    }
    return 0;
  }

  if (positional != 3 || minibatch < 1 ||
      (mode_str != "dp" && mode_str != "pp") || repeat < 1 || threads < 1) {
    return Usage();
  }

  auto spec = serve::ModelSpec::FromName(model_name);
  if (!spec.ok()) {
    std::cerr << spec.status() << "\n";
    return Usage();
  }
  serve::PlanRequest request;
  request.model = spec.value();
  request.machine = (gpus > 4 ? hw::MachineSpec::Commodity8Gpu()
                              : hw::MachineSpec::Commodity4Gpu())
                        .WithNumGpus(gpus);
  request.mode = mode_str == "pp" ? core::HarmonyMode::kPipelineParallel
                                  : core::HarmonyMode::kDataParallel;
  request.minibatch = minibatch;
  request.run_iteration = run;
  request.deadline_ms = deadline_ms;
  request.bypass_cache = bypass_cache;

  // Closed loop: each thread owns its connections and keeps exactly one
  // request outstanding, so offered concurrency == --threads.
  std::mutex mu;
  std::vector<double> latencies;  // seconds, client-observed
  int ok_count = 0, cache_hits = 0, rejected = 0, failed = 0;
  int64_t retries_used = 0;
  serve::PlanResponse sample;  // one successful response, for display

  const auto bench_start = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t]() {
      cluster::TierRetryOptions retry;
      retry.max_retries = retries;
      retry.seed = 0x636c69656e740000ull + static_cast<uint64_t>(t);
      cluster::TierClient tier(members, retry);
      for (int i = 0; i < repeat; ++i) {
        const auto start = Clock::now();
        auto response = tier.Plan(request);
        const double seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        std::lock_guard<std::mutex> lock(mu);
        if (!response.ok()) {
          ++failed;
          continue;
        }
        const serve::PlanResponse& r = response.value();
        if (r.status.ok()) {
          ++ok_count;
          latencies.push_back(seconds);
          if (r.cache_hit) ++cache_hits;
          if (!sample.status.ok() || sample.fingerprint == 0) sample = r;
        } else if (r.status.code() == StatusCode::kResourceExhausted) {
          ++rejected;
        } else {
          ++failed;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      retries_used += tier.retries();
    });
  }
  for (std::thread& t : pool) t.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - bench_start).count();

  std::sort(latencies.begin(), latencies.end());
  const double p50 = Percentile(latencies, 0.50);
  const double p99 = Percentile(latencies, 0.99);
  const double rps = wall > 0 ? static_cast<double>(ok_count) / wall : 0;

  if (as_json) {
    json::Value out = json::Value::Object();
    out.Set("model", model_name);
    out.Set("mode", mode_str);
    out.Set("minibatch", minibatch);
    out.Set("threads", threads);
    out.Set("repeat", repeat);
    out.Set("ok", ok_count);
    out.Set("cache_hits", cache_hits);
    out.Set("rejected", rejected);
    out.Set("failed", failed);
    out.Set("retries", retries_used);
    out.Set("wall_seconds", wall);
    out.Set("requests_per_second", rps);
    out.Set("p50_seconds", p50);
    out.Set("p99_seconds", p99);
    if (ok_count > 0) {
      out.Set("fingerprint", json::FingerprintHex(sample.fingerprint));
      out.Set("filled_from", sample.filled_from);
      out.Set("config", serve::ConfigurationToJson(sample.config));
    }
    std::cout << out.Dump() << "\n";
    return failed > 0 ? 1 : 0;
  }

  if (ok_count > 0) {
    std::cout << "configuration " << sample.config.ToString() << "  ["
              << json::FingerprintHex(sample.fingerprint) << "]\n"
              << "  P_F: " << core::PackListToString(sample.config.fwd_packs)
              << "\n"
              << "  P_B: " << core::PackListToString(sample.config.bwd_packs)
              << "\n"
              << "  estimated iteration: " << sample.estimate.iteration_time
              << "s (searched " << sample.configs_explored << " configs in "
              << sample.search_seconds << "s)\n";
    if (sample.has_metrics) {
      std::cout << "  executed iteration: " << sample.metrics.iteration_time
                << "s\n";
    }
  }
  std::cout << ok_count << " ok (" << cache_hits << " cache hits), "
            << rejected << " rejected, " << failed << " failed, "
            << retries_used << " retries in " << wall << "s  (" << rps
            << " req/s, p50 " << p50 * 1e3 << " ms, p99 " << p99 * 1e3
            << " ms)\n";
  return failed > 0 ? 1 : 0;
}
