#include "sim/stream.h"

#include <utility>

namespace harmony::sim {

Stream::Stream(Engine* engine, std::string name)
    : engine_(engine), name_(std::move(name)) {}

void Stream::BindTrace(trace::TraceBus* bus, int device, trace::Lane lane) {
  bus_ = bus;
  trace_device_ = device;
  trace_lane_ = lane;
}

Condition* Stream::Push(Condition* dep, Body body) {
  return PushImpl(dep, std::string(), -1, std::move(body), -1.0);
}

Condition* Stream::PushTimed(Condition* dep, std::string label, int task,
                             TimeSec duration) {
  return PushImpl(dep, std::move(label), task, Body(), duration);
}

Condition* Stream::PushDelay(Condition* dep, TimeSec duration) {
  HARMONY_CHECK_GE(duration, 0.0);
  return PushTimed(dep, std::string(), -1, duration);
}

void Stream::Reclaim() {
  while (head_ != nullptr && head_->settled) {
    Op* op = head_;
    head_ = op->next;
    if (head_ == nullptr) tail_ = nullptr;
    // A fired predecessor imposes no wait: the next op may treat it as null.
    if (last_done_ == &op->done) last_done_ = nullptr;
    op->done.Reset();
    op->body = nullptr;
    op->label.clear();
    op->settled = false;
    op->next = free_;
    free_ = op;
  }
}

Condition* Stream::PushImpl(Condition* dep, std::string label, int task,
                            Body body, TimeSec exact_duration) {
  Reclaim();
  Op* op = free_;
  if (op != nullptr) {
    free_ = op->next;
  } else {
    op = &records_.emplace_back();
  }
  op->body = std::move(body);
  op->label = std::move(label);
  op->task = task;
  op->exact_duration = exact_duration;
  op->next = nullptr;
  (tail_ != nullptr ? tail_->next : head_) = op;
  tail_ = op;

  // In order with the previous op (null for the first, or once reclaimed).
  Condition* const prev = last_done_;
  last_done_ = &op->done;
  op->waits = 0;
  for (Condition* c : {dep, prev}) {
    if (c == nullptr || c->fired()) continue;
    ++op->waits;
    c->OnFire([this, op]() {
      if (--op->waits == 0) Start(op);
    });
  }
  if (op->waits == 0) Start(op);
  return &op->done;
}

void Stream::Start(Op* op) {
  // Fault hook: a stall delays the op *start*, so the span duration and
  // busy_time accumulation are untouched — injected stalls change when work
  // happens, never how much work it is.
  const TimeSec stall = stall_probe_ ? stall_probe_() : 0.0;
  if (stall > 0.0) {
    engine_->After(stall, [this, op]() { Run(op); });
  } else {
    Run(op);
  }
}

void Stream::Run(Op* op) {
  op->start = engine_->now();
  if (bus_ != nullptr && bus_->active()) {
    trace::Event e;
    e.kind = trace::EventKind::kOpBegin;
    e.lane = trace_lane_;
    e.device = trace_device_;
    e.time = op->start;
    e.task = op->task;
    e.name = op->label;
    bus_->Emit(e);
  }
  if (op->exact_duration >= 0.0) {
    engine_->After(op->exact_duration, [this, op]() { Complete(op); });
  } else {
    op->body([this, op]() { Complete(op); });
  }
}

void Stream::Complete(Op* op) {
  if (bus_ != nullptr && bus_->active()) {
    trace::Event e;
    e.kind = trace::EventKind::kOpEnd;
    e.lane = trace_lane_;
    e.device = trace_device_;
    e.time = engine_->now();
    e.task = op->task;
    bus_->Emit(e);
  }
  busy_time_ += op->exact_duration >= 0.0 ? op->exact_duration
                                          : engine_->now() - op->start;
  last_completion_ = engine_->now();
  ++ops_completed_;
  op->done.Fire();
  op->settled = true;
}

}  // namespace harmony::sim
