#include "runtime/memory_manager.h"

#include <algorithm>

#include "common/logging.h"

namespace harmony::runtime {

const char* TensorKindName(TensorKind kind) {
  switch (kind) {
    case TensorKind::kWeight: return "W";
    case TensorKind::kGrad: return "G";
    case TensorKind::kOptState: return "O";
    case TensorKind::kActivation: return "A";
    case TensorKind::kGradAct: return "dA";
    case TensorKind::kStash: return "S";
  }
  return "?";
}

std::string TensorKey::ToString() const {
  std::string s = TensorKindName(kind);
  s += "[L" + std::to_string(layer);
  if (begin >= 0) s += ",b" + std::to_string(begin);
  s += ",o" + std::to_string(owner) + "]";
  return s;
}

DeviceMemory::DeviceMemory(Bytes capacity, int num_tensors)
    : capacity_(capacity),
      entries_(new Entry[num_tensors]),  // default-initialised: not filled
      resident_bits_((static_cast<size_t>(num_tensors) + 63) / 64, 0) {
  HARMONY_CHECK_GT(capacity, 0);
}

void DeviceMemory::AddResident(TensorId id, Bytes bytes) {
  HARMONY_CHECK_GE(bytes, 0);
  HARMONY_CHECK(!IsResident(id)) << "tensor " << id << " already resident";
  HARMONY_CHECK_LE(bytes, free_bytes())
      << "allocation without space for tensor " << id;
  // Every field is written: the entry may hold a former residency's values
  // or never have been written at all.
  Entry& e = entries_[id];
  e.bytes = bytes;
  e.lru = ++clock_;
  e.pins = 0;
  e.list_pos = static_cast<int>(resident_list_.size());
  SetResidentBit(id, true);
  resident_list_.push_back(id);
  used_ += bytes;
  peak_used_ = std::max(peak_used_, used_);
}

void DeviceMemory::RemoveResident(TensorId id) {
  HARMONY_CHECK(IsResident(id)) << "tensor " << id << " not resident";
  Entry& e = entries_[id];
  used_ -= e.bytes;
  // Swap-remove from the compact list; fix the moved entry's back-pointer.
  const int pos = e.list_pos;
  const TensorId moved = resident_list_.back();
  resident_list_[pos] = moved;
  entries_[moved].list_pos = pos;
  resident_list_.pop_back();
  SetResidentBit(id, false);
}

void DeviceMemory::Touch(TensorId id) {
  HARMONY_CHECK(IsResident(id)) << "touch of non-resident tensor " << id;
  Entry& e = entries_[id];
  e.lru = ++clock_;
}

void DeviceMemory::Pin(TensorId id) {
  HARMONY_CHECK(IsResident(id)) << "pin of non-resident tensor " << id;
  Entry& e = entries_[id];
  ++e.pins;
}

void DeviceMemory::Unpin(TensorId id) {
  HARMONY_CHECK(IsResident(id)) << "unpin of non-resident tensor " << id;
  Entry& e = entries_[id];
  HARMONY_CHECK_GT(e.pins, 0) << "unpin of unpinned tensor " << id;
  --e.pins;
}

void DeviceMemory::PickVictims(Bytes needed,
                               std::vector<TensorId>* victims) const {
  candidates_.clear();
  for (TensorId id : resident_list_) {
    if (entries_[id].pins == 0) candidates_.emplace_back(entries_[id].lru, id);
  }
  // The lru clock is a unique monotone counter, so this order is
  // deterministic regardless of resident_list_'s (arbitrary) order.
  std::sort(candidates_.begin(), candidates_.end());
  victims->clear();
  Bytes reclaimed = 0;
  for (const auto& [lru, id] : candidates_) {
    if (reclaimed >= needed) break;
    victims->push_back(id);
    reclaimed += entries_[id].bytes;
  }
}

Bytes DeviceMemory::EvictableBytes() const {
  Bytes total = 0;
  for (TensorId id : resident_list_) {
    if (entries_[id].pins == 0) total += entries_[id].bytes;
  }
  return total;
}

}  // namespace harmony::runtime
