#include "core/config.h"

#include <sstream>

namespace harmony::core {

const char* HarmonyModeName(HarmonyMode mode) {
  switch (mode) {
    case HarmonyMode::kDataParallel: return "Harmony DP";
    case HarmonyMode::kPipelineParallel: return "Harmony PP";
  }
  return "?";
}

std::string PackListToString(const PackList& packs) {
  std::ostringstream os;
  for (size_t i = 0; i < packs.size(); ++i) {
    if (i) os << ", ";
    os << "L" << packs[i].lo << "-" << packs[i].hi;
  }
  return os.str();
}

std::string Configuration::ToString() const {
  std::ostringstream os;
  os << "(U_F=" << u_fwd << ", |P_F|=" << fwd_packs.size() << ", U_B=" << u_bwd
     << ", |P_B|=" << bwd_packs.size() << ") policy=" << policy.ToString();
  return os.str();
}

Status ValidateConfiguration(const Configuration& config, int num_layers) {
  // True iff `packs` are non-empty ranges tiling [0, end) in order.
  auto tiles = [](const PackList& packs, int end) {
    int next = 0;
    for (const Pack& p : packs) {
      if (p.lo != next || p.hi < p.lo || p.hi >= end) return false;
      next = p.hi + 1;
    }
    return next == end;
  };
  if (config.u_fwd < 1 || config.u_bwd < 1 || config.bwd_packs.empty() ||
      !tiles(config.bwd_packs, num_layers) ||
      !tiles(config.fwd_packs, config.bwd_packs.back().lo) ||
      config.policy.num_layers() != num_layers) {
    return Status::InvalidArgument("configuration " + config.ToString() +
                                   " does not fit a model of " +
                                   std::to_string(num_layers) + " layers");
  }
  return Status::Ok();
}

}  // namespace harmony::core
