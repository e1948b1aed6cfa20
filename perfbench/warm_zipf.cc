// warm_zipf: one harmony_serve daemon answering an open-loop stream of
// repeated plan requests from a 64-entry catalog it searched during set-up.
// About 3 in 4 requests are byte-identical repeats (the reactor's byte memo
// answers them); the rest carry a unique deadline_ms, which the fingerprint
// ignores, so they take the parse -> fingerprint -> PlanCache path.

#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>

#include "common/socket.h"
#include "daemon.h"
#include "generators.h"
#include "serve/client.h"
#include "serve/plan_cache.h"
#include "workloads.h"

namespace perfbench {
namespace {

using harmony::Result;
using harmony::serve::PlanRequest;
using harmony::serve::PlanResponse;
using harmony::serve::ServeClient;

constexpr int kCatalogSize = 64;
constexpr double kDeadlineShare = 0.25;
constexpr int kSetupReps = 5;
/// Nominal-rate tails are the median over blocks of this many requests
/// (BlockMedianPercentile); a quarter of them take the parse path.
constexpr size_t kTailBlock = 1000;
constexpr const char* kSocket = "warm.sock";
/// A rate is within the limit when its p90, timed from the scheduled send,
/// is at most kLimitUs and its backlog is not growing. warm_knee_rps
/// interpolates where the p90 crosses the limit (KneeRate), warm_max_rps is
/// the highest ladder rate within it, and warm_knee_p99_rps is the knee the
/// p99 gives. The p99 knee, like the nominal p99, moves by tens of percent
/// between runs with the noise of a shared host; the p90 holds.
constexpr double kLimitUs = 1000;
/// The run is kRounds rounds. Each spends kNominalShare of its time at the
/// nominal rate (warm_p50_us / warm_p90_us / warm_p99_us come from these
/// segments) and then climbs a geometric ladder of offered rates
/// (kLadderRates rates from kLadderLow, each kLadderRatio above the last).
/// Rounds interleave the two over the whole run, and every rate is judged
/// on its median round (the second lowest p90 of four), so a stall in one
/// round decides nothing.
constexpr int kRounds = 4;
constexpr double kNominalRate = 5000;
constexpr double kNominalShare = 0.3;
constexpr double kLadderLow = 20000, kLadderRatio = 1.06;
constexpr int kLadderRates = 36;
constexpr double kStepGapS = 0.01;  // idle gap between steps (drains queues)
constexpr double kDrainS = 0.1;     // idle gap before each round
constexpr double kBehindUs = 8 * kLimitUs;  // see OpenLoop::Send
constexpr double kLeadIn = 0.1;     // share of a step not judged
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Saturation (Saturate): requests in flight, share of the run, rate slice.
constexpr int kSaturationWindow = 32;
constexpr double kSaturationShare = 0.2;
constexpr std::chrono::milliseconds kSaturationSlice{100};

std::string Frame(std::string_view payload) {
  std::string out(4, '\0');
  const uint32_t n = static_cast<uint32_t>(payload.size());
  out[0] = static_cast<char>(n >> 24);
  out[1] = static_cast<char>(n >> 16);
  out[2] = static_cast<char>(n >> 8);
  out[3] = static_cast<char>(n);
  out.append(payload);
  return out;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    off += static_cast<size_t>(w);
  }
  return true;
}

/// What set-up learned about one catalog entry.
struct Key {
  PlanRequest request;
  std::string memo_frame;     // framed no-deadline envelope (byte-identical)
  std::string envelope_head;  // envelope bytes up to the deadline digits
  std::string envelope_tail;  // envelope bytes after them
  PlanResponse plan;          // the set-up search's reply
  std::string plan_tail;      // reply bytes from "config": to the end
  std::string fingerprint;    // "fingerprint":"<hex>"
  double est_samples_per_s = 0;
};

std::string DeadlineEnvelope(const Key& key, int64_t deadline_ms) {
  return key.envelope_head + std::to_string(deadline_ms) + key.envelope_tail;
}

/// Every reply must be an OK cache hit for the request's fingerprint whose
/// plan bytes equal the set-up plan's. Memo replies are checked the same
/// way: the memo is flushed whenever it fills, and refills with fresh
/// cache-hit bytes, so a fixed expected reply would be wrong.
bool CheckReply(const Key& key, bool deadline, const std::string& frame,
                double* service_us) {
  const size_t config = frame.find("\"config\":");
  if (config == std::string::npos) return false;
  const std::string_view head(frame.data(), config);
  if (head.find(R"("status":"OK")") == std::string_view::npos ||
      head.find(R"("cache_hit":true)") == std::string_view::npos ||
      head.find(key.fingerprint) == std::string_view::npos) {
    return false;
  }
  // Deadline-carrying requests never hit the memo, so their
  // latency_seconds is this request's own service time.
  const size_t lat = head.find("\"latency_seconds\":");
  if (deadline && lat != std::string_view::npos) {
    *service_us = std::strtod(frame.c_str() + lat + 18, nullptr) * 1e6;
  }
  return frame.compare(config, std::string::npos, key.plan_tail) == 0;
}

/// One offered-rate step of the open-loop schedule.
struct Step {
  double rate = 0;
  int round = 0;
  size_t first = 0, end = 0;  // request index range
  double start_s = 0, end_s = 0;
};

struct Schedule {
  std::vector<Step> steps;
  std::vector<int64_t> due_ns;  // from the phase start
  std::vector<int> key;
  std::vector<char> deadline;   // 1 = carries a unique deadline_ms
};

/// Every offered rate, the nominal one first.
std::vector<double> Rates() {
  std::vector<double> rates = {kNominalRate};
  double r = kLadderLow;
  for (int i = 0; i < kLadderRates; ++i, r *= kLadderRatio) {
    rates.push_back(std::round(r));
  }
  return rates;
}

Schedule MakeSchedule(uint64_t seed, double seconds) {
  Schedule s;
  Rng rng(seed ^ 0x5a495046ULL);
  const Zipf zipf(kCatalogSize, 1.0);
  const double round_s = seconds / kRounds;
  const double step_s = round_s * (1 - kNominalShare) / kLadderRates - kStepGapS;
  double t = 0;
  auto add_step = [&](double rate, double duration, int round) {
    Step step;
    step.rate = rate;
    step.round = round;
    step.first = s.due_ns.size();
    step.start_s = t;
    const size_t n = static_cast<size_t>(rate * duration);
    for (size_t i = 0; i < n; ++i) {
      s.due_ns.push_back(static_cast<int64_t>((t + i / rate) * 1e9));
      s.key.push_back(zipf.Draw(&rng));
      s.deadline.push_back(rng.Uniform() < kDeadlineShare ? 1 : 0);
    }
    step.end = s.due_ns.size();
    t += duration;
    step.end_s = t;
    s.steps.push_back(step);
    t += kStepGapS;
  };
  const std::vector<double> rates = Rates();
  for (int round = 0; round < kRounds; ++round) {
    t += kDrainS;  // lets the previous round's top steps drain
    add_step(rates[0], round_s * kNominalShare - kStepGapS - kDrainS, round);
    for (size_t i = 1; i < rates.size(); ++i) add_step(rates[i], step_s, round);
  }
  return s;
}

/// Where each busy thread runs. Left to the scheduler, the busy-polling
/// receiver, the sender and the daemon's reactor sometimes share a vCPU for
/// a whole run, which multiplies tail latency; with four or more CPUs the
/// daemon gets all but the last two, the sender the second last and the
/// receiver the last. Empty lists leave placement to the scheduler.
struct CpuLayout {
  std::vector<int> daemon, sender, receiver, rest;
};

CpuLayout MakeCpuLayout(int nproc) {
  CpuLayout layout;
  if (nproc < 4) return layout;
  for (int cpu = 0; cpu < nproc; ++cpu) {
    layout.rest.push_back(cpu);
    if (cpu < nproc - 2) layout.daemon.push_back(cpu);
  }
  layout.sender = {nproc - 2};
  layout.receiver = {nproc - 1};
  return layout;
}

/// Per-request outcome of one open-loop phase. Each slot is written by one
/// thread (sender or one receiver) and read after both are joined.
struct Phase {
  Clock::time_point start, end;           // the schedule's zero; the last reply
  std::vector<int64_t> sent_ns, recv_ns;  // -1 = never sent / received
  std::vector<double> service_us;         // parse-path latency_seconds
  std::vector<char> ok;
  std::vector<char> step_run;  // 0 = skipped (backlog too high when due)
  std::string transport_error;
  std::map<std::string, double> stats_delta;
  SpanLog spans;
};

class OpenLoop {
 public:
  OpenLoop(const std::vector<Key>& keys, const Schedule& schedule,
           const CpuLayout& layout)
      : keys_(keys), schedule_(schedule), layout_(layout) {}

  Phase Run(const std::string& socket, bool traced) {
    const size_t n = schedule_.due_ns.size();
    Phase phase;
    phase.sent_ns.assign(n, -1);
    phase.recv_ns.assign(n, -1);
    phase.service_us.assign(n, -1);
    phase.ok.assign(n, 0);
    phase.step_run.assign(schedule_.steps.size(), 0);
    auto fd = harmony::net::ConnectUnix(socket);
    if (!fd.ok()) {
      phase.transport_error = fd.status().ToString();
      return phase;
    }
    received_total_.store(0);
    sent_count_.store(0);
    sent_order_.assign(n, 0);
    std::string receive_error;
    start_ = Clock::now() + std::chrono::milliseconds(10);
    std::thread receiver([&]() {
      PinThisThread(layout_.receiver);
      Receive(fd.value(), traced, &phase, &receive_error);
    });
    PinThisThread(layout_.sender);
    Send(fd.value(), &phase);
    PinThisThread(layout_.rest);
    harmony::net::SendFrame(fd.value(), R"({"type":"ping"})");
    receiver.join();
    phase.start = start_;
    phase.end = Clock::now();
    harmony::net::CloseFd(fd.value());
    if (!receive_error.empty()) phase.transport_error = receive_error;
    return phase;
  }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  void WaitUntil(int64_t due) const {
    for (int64_t now = NowNs(); now < due; now = NowNs()) {
      if (due - now > 100000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 50000));
      }
    }
  }

  /// The open-loop generator: sends each request when it falls due on the
  /// one load connection, every overdue request of the step in one write,
  /// whatever the replies are
  /// doing. A step that falls due while more requests are outstanding than
  /// it could pass with is skipped (and counts as over the limit), which
  /// lets an overloaded daemon drain instead of compounding the backlog. A
  /// step that ends with too many requests outstanding, or with the sender
  /// more than kBehindUs behind its schedule (the socket filled and blocked
  /// it), ends its round: the rest of the ladder is over the limit too, and
  /// a backlog left at the ladder's top would otherwise still be draining
  /// when the next round's nominal step falls due.
  void Send(int fd, Phase* phase) {
    // Sleeps end within a few microseconds of their target instead of the
    // default 50 us timer slack; the last 50 us before a send are spun.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    std::string out;
    int64_t deadline_counter = 0;
    size_t sent = 0;
    int saturated_round = -1;
    for (size_t st = 0; st < schedule_.steps.size(); ++st) {
      const Step& step = schedule_.steps[st];
      // Above a rate that saturated, the rest of the round's ladder is over
      // the limit too; skipping it keeps the backlog from spilling into the
      // next round.
      if (step.round == saturated_round) continue;
      WaitUntil(schedule_.due_ns[step.first]);
      const double allowed = std::max(256.0, 8 * step.rate * kLimitUs * 1e-6);
      if (static_cast<double>(sent) - static_cast<double>(received_total_.load()) >
          allowed) {
        continue;
      }
      phase->step_run[st] = 1;
      for (size_t k = step.first; k < step.end;) {
        WaitUntil(schedule_.due_ns[k]);
        const int64_t now = NowNs();
        size_t last = k;
        while (last < step.end && schedule_.due_ns[last] <= now) ++last;
        for (size_t i = k; i < last; ++i) {
          const Key& key = keys_[static_cast<size_t>(schedule_.key[i])];
          if (schedule_.deadline[i]) {
            out += Frame(DeadlineEnvelope(key, 600000 + deadline_counter++));
          } else {
            out += key.memo_frame;
          }
          phase->sent_ns[i] = now;
          sent_order_[sent + (i - k)] = i;
        }
        sent_count_.store(sent + (last - k), std::memory_order_release);
        if (!WriteAll(fd, out)) {
          phase->transport_error = "send failed on the load connection";
          return;
        }
        out.clear();
        sent += last - k;
        k = last;
      }
      const int64_t step_end_ns = static_cast<int64_t>(step.end_s * 1e9);
      if (static_cast<double>(sent) - static_cast<double>(received_total_.load()) >
              allowed ||
          NowNs() > step_end_ns + static_cast<int64_t>(kBehindUs * 1e3)) {
        saturated_round = step.round;
      }
    }
  }

  /// Reads replies until the trailing pong. Replies keep request order, so
  /// the j-th one answers the j-th request sent.
  void Receive(int fd, bool traced, Phase* phase, std::string* error) {
    harmony::net::FrameDecoder decoder;
    std::vector<char> buf(1 << 16);
    size_t j = 0;
    for (;;) {
      // Busy-polls: a blocked reader on an idle vCPU wakes tens of
      // microseconds late, which would be charged to the daemon.
      const ssize_t r = ::recv(fd, buf.data(), buf.size(), MSG_DONTWAIT);
      if (r < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
        continue;
      }
      if (r <= 0) {
        *error = "load connection closed by the daemon";
        return;
      }
      const int64_t now = NowNs();
      if (!decoder.Feed(buf.data(), static_cast<size_t>(r)).ok()) {
        *error = "bad frame from the daemon";
        return;
      }
      while (decoder.HasFrame()) {
        const std::string frame = decoder.PopFrame();
        if (frame.rfind(R"({"type":"pong")", 0) == 0) return;
        if (sent_count_.load(std::memory_order_acquire) <= j) {
          *error = "more replies than requests";
          return;
        }
        const size_t idx = sent_order_[j++];
        phase->recv_ns[idx] = now;
        phase->ok[idx] = Check(idx, frame, &phase->service_us[idx]) ? 1 : 0;
        if (traced) {
          phase->spans.RecordMicros(
              schedule_.deadline[idx] ? "warm.parse_path" : "warm.memo_path",
              static_cast<double>(now - phase->sent_ns[idx]) / 1e3);
        }
        received_total_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  bool Check(size_t idx, const std::string& frame, double* service_us) const {
    return CheckReply(keys_[static_cast<size_t>(schedule_.key[idx])],
                      schedule_.deadline[idx] != 0, frame, service_us);
  }

  const std::vector<Key>& keys_;
  const Schedule& schedule_;
  const CpuLayout& layout_;
  Clock::time_point start_;
  std::atomic<size_t> received_total_{0};
  /// Request indices in the order they were sent (steps may be skipped, so
  /// the j-th reply answers sent_order_[j]); published via sent_count_.
  std::vector<size_t> sent_order_;
  std::atomic<size_t> sent_count_{0};
};

/// Saturation throughput: after the open-loop phase, one connection keeps
/// kSaturationWindow requests of the same mix in flight (a reply releases
/// the next request) for kSaturationShare of the run. Rates are taken per
/// kSaturationSlice, multiplied by the host slowdown around each slice, and
/// the median slice is reported.
struct Saturation {
  double rps = 0;
  int64_t attempted = 0, failed = 0;
  std::string error;
};

Saturation Saturate(const std::vector<Key>& keys, const std::string& socket,
                    uint64_t seed, double seconds, const Speedometer& speed) {
  Saturation out;
  auto fd = harmony::net::ConnectUnix(socket);
  if (!fd.ok()) {
    out.error = fd.status().ToString();
    return out;
  }
  Rng rng(seed ^ 0x53415455ULL);
  const Zipf zipf(kCatalogSize, 1.0);
  std::deque<std::pair<int, bool>> in_flight;  // (key, carries a deadline)
  int64_t deadline_counter = 0;
  std::string out_bytes;
  auto queue_one = [&]() {
    const int k = zipf.Draw(&rng);
    const bool deadline = rng.Uniform() < kDeadlineShare;
    const Key& key = keys[static_cast<size_t>(k)];
    out_bytes += deadline ? Frame(DeadlineEnvelope(key, 900000 + deadline_counter++))
                          : key.memo_frame;
    in_flight.emplace_back(k, deadline);
    ++out.attempted;
  };
  harmony::net::FrameDecoder decoder;
  std::vector<char> buf(1 << 16);
  std::vector<double> rates;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point slice_start = start;
  int64_t slice_done = 0;
  bool sending = true;
  for (int i = 0; i < kSaturationWindow; ++i) queue_one();
  while (!in_flight.empty()) {
    if (!out_bytes.empty()) {
      if (!WriteAll(fd.value(), out_bytes)) {
        out.error = "send failed on the saturation connection";
        break;
      }
      out_bytes.clear();
    }
    const ssize_t r = ::recv(fd.value(), buf.data(), buf.size(), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0 || !decoder.Feed(buf.data(), static_cast<size_t>(r)).ok()) {
      out.error = "saturation connection failed";
      break;
    }
    while (decoder.HasFrame()) {
      const std::string frame = decoder.PopFrame();
      const auto [k, deadline] = in_flight.front();
      in_flight.pop_front();
      double service_us = 0;
      if (!CheckReply(keys[static_cast<size_t>(k)], deadline, frame, &service_us)) {
        ++out.failed;
      }
      ++slice_done;
      if (sending) queue_one();
    }
    const Clock::time_point now = Clock::now();
    if (now - slice_start >= kSaturationSlice) {
      rates.push_back(static_cast<double>(slice_done) / Seconds(now - slice_start) *
                      speed.SlowdownAround(slice_start + (now - slice_start) / 2));
      slice_start = now;
      slice_done = 0;
    }
    sending = now < end;
  }
  harmony::net::CloseFd(fd.value());
  out.failed += static_cast<int64_t>(in_flight.size());
  out.rps = Percentile(rates, 50);
  return out;
}

/// Latency of request i from its scheduled send, in microseconds.
double FromDue(const Schedule& s, const Phase& p, size_t i) {
  return static_cast<double>(p.recv_ns[i] - s.due_ns[i]) / 1e3;
}

struct StepOutcome {
  bool ran = false;
  bool all_ok = true;  // every request answered and correct
  double p90_us = 0;   // timed from the scheduled send
  double p99_us = 0;
  size_t backlog_at_end = 0;  // requests still unanswered when it ended
};

/// `slowdown(i)`: the host slowdown around request i's reply, which its
/// latency is divided by.
template <typename Slowdown>
StepOutcome EvaluateStep(const Schedule& s, const Phase& p, const Step& step,
                         bool ran, const Slowdown& slowdown) {
  StepOutcome out;
  out.ran = ran;
  if (!ran) return out;
  std::vector<double> lat;
  const int64_t end_ns = static_cast<int64_t>(step.end_s * 1e9);
  // The first kLeadIn of a step, while the daemon adjusts to the new rate,
  // is sent and checked but not judged.
  const int64_t judged_from = static_cast<int64_t>(
      (step.start_s + kLeadIn * (step.end_s - step.start_s)) * 1e9);
  for (size_t i = step.first; i < step.end; ++i) {
    if (p.recv_ns[i] < 0 || !p.ok[i]) {
      out.all_ok = false;
      continue;
    }
    if (p.recv_ns[i] > end_ns) ++out.backlog_at_end;
    if (s.due_ns[i] >= judged_from) lat.push_back(FromDue(s, p, i) / slowdown(i));
  }
  out.p90_us = Percentile(lat, 90);
  out.p99_us = Percentile(lat, 99);
  return out;
}

Result<std::vector<Key>> SetUp(const std::vector<PlanRequest>& catalog,
                               const std::string& socket, RunResult* result) {
  ServeClient client;
  HARMONY_RETURN_IF_ERROR(client.ConnectUnix(socket));
  std::vector<Key> keys(catalog.size());
  for (size_t i = 0; i < catalog.size(); ++i) {
    Key& key = keys[i];
    key.request = catalog[i];
    const std::string envelope = ServeClient::EncodePlanEnvelope(catalog[i]);
    key.memo_frame = Frame(envelope);
    PlanRequest probe = catalog[i];
    probe.deadline_ms = 777777;
    const std::string with_deadline = ServeClient::EncodePlanEnvelope(probe);
    const std::string marker = "\"deadline_ms\":777777";
    const size_t at = with_deadline.find(marker);
    if (at == std::string::npos) {
      return harmony::Status::Internal("no deadline_ms in the request envelope");
    }
    key.envelope_head = with_deadline.substr(0, at + marker.size() - 6);
    key.envelope_tail = with_deadline.substr(at + marker.size());
    key.fingerprint = "\"fingerprint\":\"" +
                      harmony::json::FingerprintHex(
                          harmony::serve::RequestFingerprint(catalog[i])) +
                      "\"";
  }
  // First pass searches every entry; the second is answered from the plan
  // cache and seeds the reactor's byte memo with exactly these bytes.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Key& key : keys) {
      HARMONY_RETURN_IF_ERROR(client.SendEncodedNowait(
          ServeClient::EncodePlanEnvelope(key.request)));
    }
    for (Key& key : keys) {
      auto raw = client.CollectRaw();
      HARMONY_RETURN_IF_ERROR(raw.status());
      ++result->attempted;
      auto parsed = harmony::json::Parse(raw.value());
      const harmony::json::Value* body =
          parsed.ok() ? parsed.value().Find("response") : nullptr;
      auto response = body != nullptr
                          ? harmony::serve::PlanResponseFromJson(*body)
                          : Result<PlanResponse>(harmony::Status::Internal("bad reply"));
      const size_t config = raw.value().find("\"config\":");
      if (!response.ok() || !response.value().status.ok() ||
          config == std::string::npos ||
          raw.value().find(key.fingerprint) == std::string::npos ||
          response.value().cache_hit != (pass == 1)) {
        ++result->failed;
        result->Fail("set-up plan for catalog entry failed: " +
                     raw.value().substr(0, 200));
        continue;
      }
      const std::string tail = raw.value().substr(config);
      if (pass == 0) {
        key.plan_tail = tail;
        key.plan = response.value();
        key.est_samples_per_s = key.request.minibatch /
                                response.value().estimate.iteration_time;
      } else if (tail != key.plan_tail) {
        ++result->failed;
        result->Fail("cache hit differs from the searched plan");
      }
    }
  }
  return keys;
}

Result<std::map<std::string, double>> StatsOf(const std::string& socket) {
  ServeClient client;
  HARMONY_RETURN_IF_ERROR(client.ConnectUnix(socket));
  auto stats = client.Stats();
  HARMONY_RETURN_IF_ERROR(stats.status());
  return FlattenCounters(stats.value());
}

/// One measured open-loop phase with stats snapshots around it.
Result<Phase> Measure(OpenLoop* loop, const std::string& socket, bool traced) {
  auto before = StatsOf(socket);
  HARMONY_RETURN_IF_ERROR(before.status());
  Phase phase = loop->Run(socket, traced);
  auto after = StatsOf(socket);
  HARMONY_RETURN_IF_ERROR(after.status());
  phase.stats_delta = CounterDelta(before.value(), after.value());
  return phase;
}

struct PhaseSummary {
  double p50_us = 0, p90_us = 0, p99_us = 0;
  double parse_p50_us = 0, parse_p90_us = 0, parse_p99_us = 0;
  double memo_p50_from_send_us = 0, parse_p50_from_send_us = 0;
  double max_rps = 0, knee_rps = 0, knee_p99_rps = 0;
  double late_p99_us = 0;
  double service_p50_us = 0;
  double slowdown = 0;  // over the whole phase
};

/// `report`: this is the phase the end-to-end metrics come from; print its
/// ladder and record its top percentiles.
PhaseSummary Summarize(const Schedule& s, const Phase& p, const Speedometer& speed,
                       RunResult* result, bool report) {
  PhaseSummary out;
  // Latencies are divided by the host slowdown around their reply.
  auto slowdown = [&](size_t i) {
    return speed.SlowdownAround(p.start + std::chrono::nanoseconds(p.recv_ns[i]));
  };
  std::vector<double> all, parse, memo_send, parse_send, service;
  std::vector<size_t> nominal;
  for (const Step& step : s.steps) {
    if (step.rate != kNominalRate) continue;
    for (size_t i = step.first; i < step.end; ++i) nominal.push_back(i);
  }
  for (size_t i : nominal) {
    if (p.recv_ns[i] < 0) continue;
    all.push_back(FromDue(s, p, i) / slowdown(i));
    const double from_send = static_cast<double>(p.recv_ns[i] - p.sent_ns[i]) / 1e3;
    if (s.deadline[i]) {
      parse.push_back(all.back());
      parse_send.push_back(from_send);
      if (p.service_us[i] >= 0) service.push_back(p.service_us[i]);
    } else {
      memo_send.push_back(from_send);
    }
  }
  for (auto [samples, what] : {std::pair{&all, "warm_p99_us"},
                               std::pair{&parse, "parse-path p99"}}) {
    if (samples->size() < 3 * kTailBlock) {
      result->Fail(std::string("too few samples for ") + what);
    }
  }
  if (report) {
    NameTopPercentile("warm", all, result);
    NameTopPercentile("warm_parse", parse, result);
  }
  out.p50_us = Percentile(all, 50);
  out.p90_us = BlockMedianPercentile(all, kTailBlock, 90);
  out.p99_us = BlockMedianPercentile(all, kTailBlock, 99);
  out.parse_p50_us = Percentile(parse, 50);
  out.parse_p90_us = BlockMedianPercentile(parse, kTailBlock / 4, 90);
  out.parse_p99_us = BlockMedianPercentile(parse, kTailBlock / 4, 99);
  out.memo_p50_from_send_us = Percentile(memo_send, 50);
  out.parse_p50_from_send_us = Percentile(parse_send, 50);
  out.service_p50_us = Percentile(service, 50);

  // Generator lateness at the nominal rate, where the generator must keep
  // its schedule; above the knee a full socket may block it, which the
  // latencies (timed from the schedule) already carry.
  std::vector<double> late;
  for (size_t i : nominal) {
    if (p.sent_ns[i] >= 0) {
      late.push_back(static_cast<double>(p.sent_ns[i] - s.due_ns[i]) / 1e3);
    }
  }
  out.late_p99_us = Percentile(late, 99);

  // Each rate: the p90, p99 and backlog of its median round.
  const std::vector<double> rates = Rates();
  std::vector<double> tails99, tails90;
  for (double rate : rates) {
    std::vector<double> p90s, p99s, backlogs;
    bool all_ok = true;
    for (size_t k = 0; k < s.steps.size(); ++k) {
      if (s.steps[k].rate != rate) continue;
      const StepOutcome o = EvaluateStep(s, p, s.steps[k], p.step_run[k] != 0, slowdown);
      p90s.push_back(o.ran ? o.p90_us : kInf);
      p99s.push_back(o.ran ? o.p99_us : kInf);
      backlogs.push_back(static_cast<double>(o.backlog_at_end));
      all_ok = all_ok && o.all_ok;
    }
    std::vector<size_t> order(p90s.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return p90s[a] < p90s[b]; });
    const size_t median = order[(order.size() - 1) / 2];
    const double allowed = std::max(16.0, 2 * rate * kLimitUs * 1e-6);
    const bool growing = backlogs[median] > allowed;
    tails99.push_back(all_ok && !growing ? p99s[median] : kInf);
    tails90.push_back(all_ok && !growing ? p90s[median] : kInf);
    if (report) {
      std::fprintf(stderr, "warm_zipf %6.0f req/s: p90 %9.1f us, p99 %9.1f us, backlog %5.0f%s\n",
                   rate, p90s[median], p99s[median], backlogs[median], growing ? " (growing)" : "");
    }
  }
  // Offered rates are real rates: the knee scales with the host's speed.
  out.slowdown = speed.Slowdown(p.start, p.end);
  out.knee_rps = KneeRate(rates, tails90, kLimitUs) * out.slowdown;
  out.knee_p99_rps = KneeRate(rates, tails99, kLimitUs) * out.slowdown;
  for (size_t i = 0; i < rates.size() && rates[i] * out.slowdown <= out.knee_rps; ++i) {
    out.max_rps = rates[i];
  }
  return out;
}

/// Times each layer of the parse path from outside, on the run's own
/// deadline-carrying requests: JSON decode, fingerprint, PlanCache lookup
/// (an in-process cache holding the catalog's plans) and reply encode; and
/// the frame + reactor + socket round trip with pings.
void ReplayLayers(const std::vector<Key>& keys, const Schedule& schedule,
                  const std::string& socket, SpanLog* spans, RunResult* result) {
  ServeClient ping;
  if (ping.ConnectUnix(socket).ok()) {
    for (int i = 0; i < 2000; ++i) {
      Timed(spans, "server.ping_rtt", [&]() { return ping.Ping(); });
    }
  }
  harmony::serve::PlanCache cache(64ull << 20);
  for (const Key& key : keys) {
    auto plan = std::make_shared<harmony::serve::CachedPlan>();
    plan->canonical_request = harmony::serve::CanonicalRequestJson(key.request);
    plan->config = key.plan.config;
    plan->estimate = key.plan.estimate;
    plan->configs_explored = key.plan.configs_explored;
    plan->configs_feasible = key.plan.configs_feasible;
    plan->search_seconds = key.plan.search_seconds;
    cache.Insert(harmony::serve::RequestFingerprint(key.request), plan);
  }
  int replayed = 0;
  for (size_t i = 0; i < schedule.due_ns.size() && replayed < 2000; ++i) {
    if (!schedule.deadline[i]) continue;
    ++replayed;
    const Key& key = keys[static_cast<size_t>(schedule.key[i])];
    const std::string bytes = DeadlineEnvelope(key, 600000 + replayed);
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

}  // namespace

RunResult RunWarmZipf(const Options& options) {
  RunResult result;
  const Speedometer speed;
  const CpuLayout layout = MakeCpuLayout(options.nproc);
  RunDir dir(options.work_dir);
  const std::vector<PlanRequest> catalog = WarmCatalog(options.seed, kCatalogSize);

  // Set-up, several times: start the daemon, search the catalog, seed the
  // memo. Every repetition but the last is shut down again.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::vector<Key> keys;
  const std::vector<std::string> args = {
      std::string("--unix=") + kSocket, "--workers=" + std::to_string(std::max(1, options.nproc - 1)),
      "--cache-mb=64"};
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>("warm", options.serve_binary, dir, args);
    // The daemon inherits the CPUs of the thread that starts it.
    PinThisThread(layout.daemon);
    harmony::Status st = daemon->Start();
    PinThisThread(layout.rest);
    if (st.ok()) st = daemon->WaitReady(kSocket, 30);
    if (!st.ok()) {
      result.Fail(st.ToString());
      return result;
    }
    auto set = SetUp(catalog, daemon->SocketPath(kSocket), &result);
    if (!set.ok()) {
      result.Fail("set-up: " + set.status().ToString());
      return result;
    }
    keys = std::move(set).value();
    const Clock::time_point t1 = Clock::now();
    setup_s.push_back(Seconds(t1 - t0) / speed.SlowdownAround(t1));
    if (rep + 1 < kSetupReps) {
      if (harmony::Status stop = daemon->Stop(kSocket, 10); !stop.ok()) {
        result.Fail(stop.ToString());
        return result;
      }
    }
  }
  if (!result.errors.empty()) return result;

  const Schedule schedule =
      MakeSchedule(options.seed, options.seconds * (1 - kSaturationShare));
  OpenLoop loop(keys, schedule, layout);
  const std::string socket = daemon->SocketPath(kSocket);
  auto untraced = Measure(&loop, socket, /*traced=*/false);
  if (!untraced.ok()) {
    result.Fail(untraced.status().ToString());
    return result;
  }
  std::vector<Phase> phases;
  phases.push_back(std::move(untraced).value());
  const Saturation saturation = Saturate(keys, socket, options.seed,
                                         options.seconds * kSaturationShare, speed);
  if (!saturation.error.empty()) result.Fail(saturation.error);
  result.attempted += saturation.attempted;
  result.failed += saturation.failed;
  if (options.trace) {
    auto traced = Measure(&loop, socket, /*traced=*/true);
    if (!traced.ok()) {
      result.Fail(traced.status().ToString());
      return result;
    }
    phases.push_back(std::move(traced).value());
  }
  for (const Phase& p : phases) {
    if (!p.transport_error.empty()) result.Fail(p.transport_error);
    for (size_t i = 0; i < p.sent_ns.size(); ++i) {
      if (p.sent_ns[i] < 0) continue;
      ++result.attempted;
      if (p.recv_ns[i] < 0 || !p.ok[i]) ++result.failed;
    }
  }
  const PhaseSummary base = Summarize(schedule, phases.front(), speed, &result, true);

  // Layer replays and pings run after the measured phases, off the clock.
  SpanLog& spans = phases.back().spans;
  if (options.trace) ReplayLayers(keys, schedule, socket, &spans, &result);

  const double peak_rss = daemon->PeakRssMb();
  if (harmony::Status stop = daemon->Stop(kSocket, 10); !stop.ok()) {
    result.Fail(stop.ToString());
  }

  double samples_log = 0;
  for (const Key& key : keys) samples_log += std::log(key.est_samples_per_s);
  const double plan_samples = std::exp(samples_log / static_cast<double>(keys.size()));

  result.Named("warm_p50_us", base.p50_us, "us");
  result.Named("warm_p90_us", base.p90_us, "us");
  result.Named("warm_p99_us", base.p99_us, "us");
  result.Named("warm_max_rps", base.max_rps, "1/s");
  result.Named("warm_knee_rps", base.knee_rps, "1/s");
  result.Named("warm_knee_p99_rps", base.knee_p99_rps, "1/s");
  result.Named("warm_parse_p50_us", base.parse_p50_us, "us");
  result.Named("warm_parse_p90_us", base.parse_p90_us, "us");
  result.Named("warm_parse_p99_us", base.parse_p99_us, "us");
  result.Named("setup_s", Percentile(setup_s, 50), "s");
  result.Named("peak_rss_mb", peak_rss, "MB");
  result.Named("host_slowdown", base.slowdown, "ratio");
  result.Named("warm_saturation_rps", saturation.rps, "1/s");
  result.Named("gen_late_p99_us", base.late_p99_us, "us");

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = Percentile(setup_s, 50);
    e2e.peak_rss_mb = peak_rss;
    e2e.ops_per_s = saturation.rps;
    e2e.lat_p50_us = base.p50_us;
    e2e.lat_p90_us = base.p90_us;
    e2e.plan_samples_per_s = plan_samples;
    EmitEndToEnd(e2e, &result);
    return result;
  }

  const Phase& traced = phases.back();
  const PhaseSummary t = Summarize(schedule, traced, speed, &result, false);
  const auto& d = traced.stats_delta;
  const double decode = spans.P50("wire.decode");
  const double fingerprint = spans.P50("wire.fingerprint");
  const double lookup = spans.P50("plan_cache.lookup");
  const double encode = spans.P50("wire.encode");
  const double ping_rtt = spans.P50("server.ping_rtt");
  std::map<std::string, double> layer = {
      {"server.memo_hit_ratio",
       Ratio(Counter(d, "frontend.fastpath_hits"), Counter(d, "frontend.frames_received"))},
      {"server.memo_path_p50_us", t.memo_p50_from_send_us},
      {"server.frames_per_wakeup",
       Ratio(Counter(d, "frontend.frames_received"), Counter(d, "frontend.epoll_wakeups"))},
      {"server.ping_rtt_us", ping_rtt},
      {"wire.decode_us", decode},
      {"wire.fingerprint_us", fingerprint},
      {"plan_cache.lookup_us", lookup},
      {"wire.encode_us", encode},
      {"plan_service.service_p50_us", t.service_p50_us},
      {"plan_cache.hit_ratio",
       Ratio(Counter(d, "cache.hits"), Counter(d, "cache.hits") + Counter(d, "cache.misses"))},
      {"plan_cache.evictions", Counter(d, "cache.evictions")},
      {"plan_service.rejected", Counter(d, "service.rejected")},
      {"trace.overhead_frac", Ratio(t.p50_us - base.p50_us, base.p50_us)},
      {"trace.unattributed_frac",
       UnattributedFrac(t.parse_p50_from_send_us,
                        {ping_rtt, decode, fingerprint, lookup, encode})},
  };
  EmitPerLayer(layer, &result);
  result.spans = spans.Summary();
  return result;
}

}  // namespace perfbench
