#include "src/hyper/vm.h"

#include <sstream>

namespace oasis {

const char* VmActivityName(VmActivity a) {
  return a == VmActivity::kActive ? "active" : "idle";
}

const char* VmResidencyName(VmResidency r) {
  switch (r) {
    case VmResidency::kFullAtHome:
      return "full@home";
    case VmResidency::kFullAtConsolidation:
      return "full@consolidation";
    case VmResidency::kPartial:
      return "partial";
  }
  return "?";
}

Vm::Vm(const VmConfig& config)
    : config_(config), image_(config.memory_bytes, config.seed) {}

std::string Vm::DebugString() const {
  std::ostringstream os;
  os << "vm" << config_.id << "[" << VmTypeName(config_.type) << ", "
     << VmActivityName(activity_) << ", " << VmResidencyName(residency_)
     << ", touched=" << FormatBytes(image_.touched_bytes()) << "]";
  return os.str();
}

}  // namespace oasis
