#include "serve/client.h"

namespace harmony::serve {

namespace {

/// The one reply decoder behind every exchange, blocking or pipelined:
/// parses the frame and checks its envelope type. "error" replies surface
/// as Internal.
Result<json::Value> DecodeReply(std::string_view frame,
                                const std::string& expect_type) {
  auto reply = json::Parse(frame);
  HARMONY_RETURN_IF_ERROR(reply.status());
  std::string type;
  HARMONY_RETURN_IF_ERROR(json::ReadString(reply.value(), "type", &type));
  if (type == "error") {
    std::string error = "(no detail)";
    (void)json::ReadString(reply.value(), "error", &error);
    return Status::Internal("server error: " + error);
  }
  if (type != expect_type) {
    return Status::Internal("unexpected reply type \"" + type +
                            "\" (wanted \"" + expect_type + "\")");
  }
  return reply;
}

Result<PlanResponse> PlanFromReply(const Result<json::Value>& reply) {
  HARMONY_RETURN_IF_ERROR(reply.status());
  const json::Value* response = reply.value().Find("response");
  if (response == nullptr) {
    return Status::Internal("plan reply missing \"response\"");
  }
  return PlanResponseFromJson(*response);
}

}  // namespace

Status ServeClient::ConnectUnix(const std::string& path) {
  Close();
  endpoint_ = Endpoint::kUnix;
  unix_path_ = path;
  auto fd = net::ConnectUnix(path);
  HARMONY_RETURN_IF_ERROR(AnnotateTransport(fd.status()));
  fd_ = fd.value();
  return Status::Ok();
}

Status ServeClient::ConnectTcp(const std::string& host, int port) {
  Close();
  endpoint_ = Endpoint::kTcp;
  tcp_host_ = host;
  tcp_port_ = port;
  auto fd = net::ConnectTcp(host, port);
  HARMONY_RETURN_IF_ERROR(AnnotateTransport(fd.status()));
  fd_ = fd.value();
  return Status::Ok();
}

std::string ServeClient::endpoint_description() const {
  switch (endpoint_) {
    case Endpoint::kUnix:
      return "unix:" + unix_path_;
    case Endpoint::kTcp:
      return "tcp:" + tcp_host_ + ":" + std::to_string(tcp_port_);
    case Endpoint::kNone:
      break;
  }
  return "(not connected)";
}

Status ServeClient::AnnotateTransport(Status s) const {
  if (s.ok()) return s;
  return Status(s.code(),
                s.message() + " [endpoint " + endpoint_description() + "]");
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    net::CloseFd(fd_);
    fd_ = -1;
  }
  in_flight_ = 0;
}

Result<json::Value> ServeClient::RoundTrip(const json::Value& envelope,
                                           const std::string& expect_type) {
  return RoundTripEncoded(envelope.Dump(), expect_type);
}

Result<json::Value> ServeClient::RoundTripEncoded(
    const std::string& envelope_bytes, const std::string& expect_type) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  if (in_flight_ > 0) {
    // A blocking round trip would swallow the oldest pipelined response.
    return Status::FailedPrecondition(
        "Collect() in-flight responses before a blocking round trip");
  }
  HARMONY_RETURN_IF_ERROR(AnnotateTransport(net::SendFrame(fd_, envelope_bytes)));
  auto frame = net::RecvFrame(fd_);
  HARMONY_RETURN_IF_ERROR(AnnotateTransport(frame.status()));
  return DecodeReply(frame.value(), expect_type);
}

Result<PlanResponse> ServeClient::Plan(const PlanRequest& request) {
  return PlanFromReply(RoundTripEncoded(EncodePlanEnvelope(request), "plan"));
}

std::string ServeClient::EncodePlanEnvelope(const PlanRequest& request) {
  json::Value envelope = json::Value::Object();
  envelope.Set("type", "plan");
  envelope.Set("request", PlanRequestToJson(request));
  return envelope.Dump();
}

Status ServeClient::SendNowait(const PlanRequest& request) {
  return SendEncodedNowait(EncodePlanEnvelope(request));
}

Status ServeClient::SendEncodedNowait(const std::string& envelope_bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  HARMONY_RETURN_IF_ERROR(AnnotateTransport(net::SendFrame(fd_, envelope_bytes)));
  ++in_flight_;
  return Status::Ok();
}

Result<std::string> ServeClient::CollectRaw() {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  if (in_flight_ <= 0) {
    return Status::FailedPrecondition("no requests in flight to collect");
  }
  auto frame = net::RecvFrame(fd_);
  HARMONY_RETURN_IF_ERROR(AnnotateTransport(frame.status()));
  --in_flight_;
  return std::move(frame).value();
}

Result<PlanResponse> ServeClient::Collect() {
  auto raw = CollectRaw();
  HARMONY_RETURN_IF_ERROR(raw.status());
  return PlanFromReply(DecodeReply(raw.value(), "plan"));
}

Result<json::Value> ServeClient::Stats() {
  json::Value envelope = json::Value::Object();
  envelope.Set("type", "stats");
  return RoundTrip(envelope, "stats");
}

Status ServeClient::Ping() {
  json::Value envelope = json::Value::Object();
  envelope.Set("type", "ping");
  return RoundTrip(envelope, "pong").status();
}

Status ServeClient::Shutdown() {
  json::Value envelope = json::Value::Object();
  envelope.Set("type", "shutdown");
  return RoundTrip(envelope, "ok").status();
}

}  // namespace harmony::serve
