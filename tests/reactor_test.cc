// Reactor frontend tests: the frame state machines (length prefixes split at
// arbitrary byte boundaries, payloads spread over many reads, oversized
// frames rejected before a byte of payload is buffered), pipelining's
// in-order response guarantee, the idle and partial-frame ("slow loris")
// reapers, the frontend counters in the stats envelope, and the warm-path
// byte memo. Server-level sections drive a real PlanServer over a
// Unix-domain socket — some with ServeClient, some with raw frames where the
// point is a malformed or partial byte stream a well-behaved client would
// never produce.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "serve/client.h"
#include "serve/plan_service.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace harmony {
namespace {

using serve::ModelSpec;
using serve::PlanRequest;
using serve::PlanResponse;
using serve::PlanServer;
using serve::PlanService;
using serve::ServeClient;
using serve::ServeOptions;
using serve::ServerOptions;

/// A request small enough that its cold search takes milliseconds: these
/// tests exercise the frontend, not Algorithm 1.
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
  return "/tmp/harmony_reactor_" + name + "_" + std::to_string(::getpid()) +
         ".sock";
}

/// Feeds `bytes` to a decoder in `chunk`-sized slices.
Status FeedInChunks(net::FrameDecoder* decoder, const std::string& bytes,
                    size_t chunk) {
  for (size_t i = 0; i < bytes.size(); i += chunk) {
    const size_t n = std::min(chunk, bytes.size() - i);
    HARMONY_RETURN_IF_ERROR(decoder->Feed(bytes.data() + i, n));
  }
  return Status::Ok();
}

std::string EncodeFrame(const std::string& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::string out;
  out.push_back(static_cast<char>((len >> 24) & 0xff));
  out.push_back(static_cast<char>((len >> 16) & 0xff));
  out.push_back(static_cast<char>((len >> 8) & 0xff));
  out.push_back(static_cast<char>(len & 0xff));
  out += payload;
  return out;
}

TEST(FrameDecoder, PrefixSplitAtByteThree) {
  net::FrameDecoder decoder;
  const std::string bytes = EncodeFrame("{\"type\":\"ping\"}");
  ASSERT_TRUE(decoder.Feed(bytes.data(), 3).ok());
  EXPECT_FALSE(decoder.HasFrame());
  EXPECT_TRUE(decoder.mid_frame());
  ASSERT_TRUE(decoder.Feed(bytes.data() + 3, bytes.size() - 3).ok());
  ASSERT_TRUE(decoder.HasFrame());
  EXPECT_EQ(decoder.PopFrame(), "{\"type\":\"ping\"}");
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(FrameDecoder, PayloadSpreadAcrossManyReads) {
  net::FrameDecoder decoder;
  const std::string payload(1000, 'x');
  ASSERT_TRUE(FeedInChunks(&decoder, EncodeFrame(payload), 1).ok());
  ASSERT_TRUE(decoder.HasFrame());
  EXPECT_EQ(decoder.PopFrame(), payload);
}

TEST(FrameDecoder, ZeroLengthPayload) {
  net::FrameDecoder decoder;
  const std::string bytes = EncodeFrame("");
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  ASSERT_TRUE(decoder.HasFrame());
  EXPECT_EQ(decoder.PopFrame(), "");
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(FrameDecoder, SeveralFramesInOneRead) {
  net::FrameDecoder decoder;
  const std::string bytes =
      EncodeFrame("one") + EncodeFrame("") + EncodeFrame("three");
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  ASSERT_TRUE(decoder.HasFrame());
  EXPECT_EQ(decoder.PopFrame(), "one");
  EXPECT_EQ(decoder.PopFrame(), "");
  EXPECT_EQ(decoder.PopFrame(), "three");
  EXPECT_FALSE(decoder.HasFrame());
}

TEST(FrameDecoder, OversizedFrameRejectedBeforeBufferingPayload) {
  net::FrameDecoder decoder(/*max_payload=*/1024);
  // Prefix declares 1 MiB, followed by bytes that must never be buffered.
  std::string bytes = EncodeFrame(std::string(16, 'y'));
  bytes[1] = 0x10;  // length becomes 0x00100010
  const Status rejected = decoder.Feed(bytes.data(), bytes.size());
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoder.oversized_length(), 0x00100010u);
  EXPECT_EQ(decoder.partial_bytes(), 0u) << "payload of a rejected frame "
                                            "must not be buffered";
  // The stream is unframeable from here: the decoder stays poisoned.
  const std::string good = EncodeFrame("ok");
  EXPECT_EQ(decoder.Feed(good.data(), good.size()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(decoder.HasFrame());
}

TEST(FrameDecoder, GarbagePayloadIsStillAWellFramedFrame) {
  // Framing doesn't care that the payload is not JSON: garbage-then-valid on
  // one stream decodes as two clean frames (the server answers the first
  // with an error frame and keeps the connection).
  net::FrameDecoder decoder;
  const std::string bytes =
      EncodeFrame("!!not json!!") + EncodeFrame("{\"type\":\"ping\"}");
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  EXPECT_EQ(decoder.PopFrame(), "!!not json!!");
  EXPECT_EQ(decoder.PopFrame(), "{\"type\":\"ping\"}");
}

TEST(FrameWriter, QueuedFramesRoundTripThroughASocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::FrameWriter writer;
  writer.QueueFrame("alpha");
  writer.QueueFrame("");
  writer.QueueFrame("gamma");
  EXPECT_EQ(writer.pending_bytes(), 5u + 0u + 5u + 3 * 4u);
  ASSERT_TRUE(writer.Flush(fds[0]).ok());
  EXPECT_EQ(writer.pending_bytes(), 0u);
  auto one = net::RecvFrame(fds[1]);
  auto two = net::RecvFrame(fds[1]);
  auto three = net::RecvFrame(fds[1]);
  ASSERT_TRUE(one.ok() && two.ok() && three.ok());
  EXPECT_EQ(one.value(), "alpha");
  EXPECT_EQ(two.value(), "");
  EXPECT_EQ(three.value(), "gamma");
  net::CloseFd(fds[0]);
  net::CloseFd(fds[1]);
}

TEST(FrameTransport, ResetWithTheRequestUnreadIsAPeerClose) {
  // A daemon that exits with the client's request still unread resets the
  // connection. The client must see the same kNotFound as a clean close, so
  // TierClient re-dials the member instead of failing over.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(net::SendFrame(fds[0], "{\"type\":\"ping\"}").ok());
  net::CloseFd(fds[1]);  // the request is never read
  auto reply = net::RecvFrame(fds[0]);
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound) << reply.status();
  net::CloseFd(fds[0]);
}

// --- server-level: a real PlanServer over a Unix socket -------------------

struct TestServer {
  explicit TestServer(const std::string& name,
                      ServerOptions options = ServerOptions{})
      : service(ServeOptions{}) {
    options.unix_path = SockPath(name);
    path = options.unix_path;
    server = std::make_unique<PlanServer>(&service, options);
    const Status listening = server->Listen();
    HARMONY_CHECK(listening.ok()) << listening;
    server->Start();
  }
  ~TestServer() {
    server->Stop();
    ::unlink(path.c_str());
  }

  /// Frontend counters observed through the wire, like any client would.
  json::Value Frontend() {
    ServeClient probe;
    HARMONY_CHECK(probe.ConnectUnix(path).ok());
    auto stats = probe.Stats();
    HARMONY_CHECK(stats.ok()) << stats.status();
    const json::Value* frontend = stats.value().Find("frontend");
    HARMONY_CHECK(frontend != nullptr) << "stats envelope lost \"frontend\"";
    return *frontend;
  }

  PlanService service;
  std::unique_ptr<PlanServer> server;
  std::string path;
};

int64_t ReadCounter(const json::Value& frontend, const std::string& key) {
  int64_t value = -1;
  HARMONY_CHECK(json::ReadInt64(frontend, key, &value).ok())
      << "frontend counter missing: " << key;
  return value;
}

TEST(Reactor, GarbageThenValidFrameOnTheSameConnection) {
  TestServer ts("garbage");
  auto fd = net::ConnectUnix(ts.path);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(net::SendFrame(fd.value(), "!!not json!!").ok());
  auto error = net::RecvFrame(fd.value());
  ASSERT_TRUE(error.ok());
  auto parsed = json::Parse(error.value());
  ASSERT_TRUE(parsed.ok());
  std::string type;
  ASSERT_TRUE(json::ReadString(parsed.value(), "type", &type).ok());
  EXPECT_EQ(type, "error");
  // Framing was never violated, so the connection must still be usable.
  ASSERT_TRUE(net::SendFrame(fd.value(), "{\"type\":\"ping\"}").ok());
  auto pong = net::RecvFrame(fd.value());
  ASSERT_TRUE(pong.ok());
  EXPECT_NE(pong.value().find("pong"), std::string::npos);
  net::CloseFd(fd.value());
}

TEST(Reactor, OversizedFrameGetsAnErrorFrameThenTheConnectionCloses) {
  ServerOptions options;
  options.max_frame_bytes = 4096;
  TestServer ts("oversized", options);
  auto fd = net::ConnectUnix(ts.path);
  ASSERT_TRUE(fd.ok());
  // A length prefix declaring 1 MiB against a 4 KiB cap.
  const unsigned char prefix[4] = {0x00, 0x10, 0x00, 0x00};
  ASSERT_EQ(::send(fd.value(), prefix, 4, MSG_NOSIGNAL), 4);
  auto error = net::RecvFrame(fd.value());
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_NE(error.value().find("error"), std::string::npos);
  EXPECT_NE(error.value().find("exceeds"), std::string::npos);
  // The stream is unframeable: the server closes after flushing the error.
  auto eof = net::RecvFrame(fd.value());
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  net::CloseFd(fd.value());
}

TEST(Reactor, PipelinedResponsesArriveInRequestOrder) {
  TestServer ts("pipeline");
  ServeClient client;
  ASSERT_TRUE(client.ConnectUnix(ts.path).ok());
  // Distinct minibatches -> distinct searches racing in the worker pool; the
  // k-th response must still answer the k-th request.
  const std::vector<int> minibatches = {1, 2, 4, 8};
  for (const int mb : minibatches) {
    ASSERT_TRUE(client.SendNowait(TinyRequest(mb)).ok());
  }
  EXPECT_EQ(client.in_flight(), 4);
  for (const int mb : minibatches) {
    auto response = client.Collect();
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response.value().status.ok()) << response.value().status;
    EXPECT_EQ(response.value().fingerprint,
              serve::RequestFingerprint(TinyRequest(mb)))
        << "response out of order for minibatch " << mb;
  }
  EXPECT_EQ(client.in_flight(), 0);

  // Warm pass over the same connection: pipelined cache hits must be
  // bit-identical to the cold answers.
  std::vector<std::string> cold_configs;
  for (const int mb : minibatches) {
    auto cold = client.Plan(TinyRequest(mb));
    ASSERT_TRUE(cold.ok());
    cold_configs.push_back(
        serve::ConfigurationToJson(cold.value().config).Dump());
  }
  for (const int mb : minibatches) {
    ASSERT_TRUE(client.SendNowait(TinyRequest(mb)).ok());
  }
  for (size_t i = 0; i < minibatches.size(); ++i) {
    auto warm = client.Collect();
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm.value().cache_hit);
    EXPECT_EQ(serve::ConfigurationToJson(warm.value().config).Dump(),
              cold_configs[i]);
  }
}

TEST(Reactor, InlineRepliesDoNotOvertakeASlowSearch) {
  TestServer ts("ordering");
  auto fd = net::ConnectUnix(ts.path);
  ASSERT_TRUE(fd.ok());
  // A plan (handled by a worker thread) pipelined ahead of a ping (handled
  // inline on the loop): the pong must wait for the plan response.
  const std::string plan = ServeClient::EncodePlanEnvelope(TinyRequest());
  ASSERT_TRUE(net::SendFrame(fd.value(), plan).ok());
  ASSERT_TRUE(net::SendFrame(fd.value(), "{\"type\":\"ping\"}").ok());
  auto first = net::RecvFrame(fd.value());
  auto second = net::RecvFrame(fd.value());
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_NE(first.value().find("\"plan\""), std::string::npos);
  EXPECT_NE(second.value().find("pong"), std::string::npos);
  net::CloseFd(fd.value());
}

TEST(Reactor, IdleConnectionIsReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  TestServer ts("idle", options);
  auto fd = net::ConnectUnix(ts.path);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(net::SendFrame(fd.value(), "{\"type\":\"ping\"}").ok());
  ASSERT_TRUE(net::RecvFrame(fd.value()).ok());
  // Go quiet. The reaper closes the connection; this blocking read observes
  // the EOF (NotFound) instead of hanging forever.
  auto eof = net::RecvFrame(fd.value());
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  net::CloseFd(fd.value());
  EXPECT_GE(ReadCounter(ts.Frontend(), "connections_reaped_idle"), 1);
}

TEST(Reactor, SlowLorisPartialFrameIsReapedOthersUnaffected) {
  ServerOptions options;
  options.frame_deadline_ms = 100;
  TestServer ts("loris", options);

  // The attacker: two bytes of a length prefix, then silence.
  auto loris = net::ConnectUnix(ts.path);
  ASSERT_TRUE(loris.ok());
  const unsigned char half_prefix[2] = {0x00, 0x00};
  ASSERT_EQ(::send(loris.value(), half_prefix, 2, MSG_NOSIGNAL), 2);

  // A well-behaved neighbor keeps getting service while the loris stalls.
  ServeClient neighbor;
  ASSERT_TRUE(neighbor.ConnectUnix(ts.path).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(neighbor.Ping().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  auto eof = net::RecvFrame(loris.value());
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound)
      << "stalled mid-frame connection was not reaped";
  net::CloseFd(loris.value());
  EXPECT_GE(ReadCounter(ts.Frontend(), "connections_reaped_deadline"), 1);
  EXPECT_TRUE(neighbor.Ping().ok());
}

TEST(Reactor, StatsEnvelopeCarriesFrontendCounters) {
  TestServer ts("stats");
  ServeClient client;
  ASSERT_TRUE(client.ConnectUnix(ts.path).ok());
  // Cold search, then a cache hit (fills the byte memo), then a memo hit.
  ASSERT_TRUE(client.Plan(TinyRequest()).ok());
  ASSERT_TRUE(client.Plan(TinyRequest()).ok());
  ASSERT_TRUE(client.Plan(TinyRequest()).ok());

  const json::Value frontend = ts.Frontend();
  EXPECT_GE(ReadCounter(frontend, "connections_live"), 1);
  EXPECT_GE(ReadCounter(frontend, "connections_accepted"), 1);
  EXPECT_GE(ReadCounter(frontend, "frames_received"), 3);
  EXPECT_GE(ReadCounter(frontend, "epoll_wakeups"), 1);
  EXPECT_GE(ReadCounter(frontend, "fastpath_hits"), 1)
      << "a byte-identical warm request should skip JSON parsing";
  EXPECT_EQ(ReadCounter(frontend, "frames_in_flight"), 0);
  EXPECT_EQ(ReadCounter(frontend, "bytes_buffered"), 0);
  // Every counter the struct defines must survive the wire round trip.
  for (const char* key :
       {"connections_rejected", "connections_reaped_idle",
        "connections_reaped_deadline", "connections_closed"}) {
    EXPECT_GE(ReadCounter(frontend, key), 0);
  }
}

TEST(Reactor, OverCapacityConnectionIsRefusedWithAnErrorFrame) {
  ServerOptions options;
  options.max_connections = 1;
  TestServer ts("capacity", options);
  ServeClient first;
  ASSERT_TRUE(first.ConnectUnix(ts.path).ok());
  ASSERT_TRUE(first.Ping().ok());

  auto second = net::ConnectUnix(ts.path);
  ASSERT_TRUE(second.ok());
  auto refusal = net::RecvFrame(second.value());
  ASSERT_TRUE(refusal.ok()) << refusal.status();
  EXPECT_NE(refusal.value().find("capacity"), std::string::npos);
  auto eof = net::RecvFrame(second.value());
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  net::CloseFd(second.value());

  // The admitted connection was never disturbed; freeing it readmits.
  EXPECT_TRUE(first.Ping().ok());
  first.Close();
  for (int i = 0; i < 100; ++i) {  // the acceptor sees the close on its tick
    ServeClient retry;
    if (retry.ConnectUnix(ts.path).ok() && retry.Ping().ok()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "capacity never freed after the first connection closed";
}

TEST(Reactor, ShutdownFramePipelinedBehindRequestsStillAnswersThemAll) {
  TestServer ts("shutdown");
  ServeClient client;
  ASSERT_TRUE(client.ConnectUnix(ts.path).ok());
  // Two plans then a shutdown, all pipelined: both plans must be answered
  // (in order) before the "ok", then the server stops.
  ASSERT_TRUE(client.SendNowait(TinyRequest(1)).ok());
  ASSERT_TRUE(client.SendNowait(TinyRequest(2)).ok());
  auto a = client.Collect();
  auto b = client.Collect();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().fingerprint, serve::RequestFingerprint(TinyRequest(1)));
  EXPECT_EQ(b.value().fingerprint, serve::RequestFingerprint(TinyRequest(2)));
  ASSERT_TRUE(client.Shutdown().ok());
  ts.server->Wait();
  EXPECT_TRUE(ts.server->stopped());
}

TEST(Reactor, MultiLoopServerServesManyConnections) {
  ServerOptions options;
  options.loop_threads = 2;
  TestServer ts("multiloop", options);
  // More connections than loops: round-robin assignment puts traffic on
  // both, and every connection gets correct in-order service.
  std::vector<std::unique_ptr<ServeClient>> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(std::make_unique<ServeClient>());
    ASSERT_TRUE(clients.back()->ConnectUnix(ts.path).ok());
  }
  for (auto& c : clients) ASSERT_TRUE(c->SendNowait(TinyRequest()).ok());
  for (auto& c : clients) {
    auto r = c->Collect();
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(r.value().status.ok());
  }
  EXPECT_GE(ReadCounter(ts.Frontend(), "connections_accepted"), 6);
}

}  // namespace
}  // namespace harmony
