#include "sim/engine.h"

namespace harmony::sim {

Engine::~Engine() {
  // Destroy pending payloads without running them (run=false) so captured
  // state (shared_ptrs, trace sinks) is released even when the engine is
  // torn down with events still queued.
  while (EventRec* rec = queue_.PopMin()) rec->op(rec, this, /*run=*/false);
}

TimeSec Engine::Run() {
  while (EventRec* rec = queue_.PopMin()) {
    now_ = rec->time;
    ++events_processed_;
    rec->op(rec, this, /*run=*/true);
  }
  return now_;
}

void Condition::Fire() {
  HARMONY_CHECK(!fired_) << "Condition fired twice";
  fired_ = true;
  // With fired_ set, OnFire runs new waiters immediately, so neither slot
  // changes while the registered ones run.
  if (first_) first_();
  for (size_t i = 0; i < more_.size(); ++i) more_[i]();
  first_ = nullptr;
  more_.clear();
}

void Condition::OnFire(std::function<void()> fn) {
  if (fired_) {
    fn();
  } else if (!first_) {
    first_ = std::move(fn);
  } else {
    more_.push_back(std::move(fn));
  }
}

void Condition::Reset() {
  fired_ = false;
  first_ = nullptr;
  more_.clear();
}

}  // namespace harmony::sim
