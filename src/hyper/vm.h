// Virtual machine state as the Oasis hypervisor extension sees it.
//
// A Vm couples identity/configuration with a page-granular MemoryImage.
// Activity (active/idle) is what the cluster manager's policies react to;
// residency records in what form the VM currently executes (full at home,
// full on a consolidation host, or partial). Which host that is, the
// cluster's VmSlot records.

#ifndef OASIS_SRC_HYPER_VM_H_
#define OASIS_SRC_HYPER_VM_H_

#include <cstdint>
#include <string>

#include "src/common/units.h"
#include "src/mem/access_generator.h"
#include "src/mem/memory_image.h"

namespace oasis {

using VmId = uint32_t;
using HostId = uint32_t;
inline constexpr HostId kNoHost = UINT32_MAX;
inline constexpr VmId kNoVm = UINT32_MAX;

enum class VmActivity : uint8_t { kActive, kIdle };
enum class VmResidency : uint8_t {
  kFullAtHome,           // complete image resident on its home host
  kFullAtConsolidation,  // live-migrated in full to a consolidation host
  kPartial,              // partial VM: executes remotely, pages fault in
};

const char* VmActivityName(VmActivity a);
const char* VmResidencyName(VmResidency r);

struct VmConfig {
  VmId id = 0;
  uint64_t memory_bytes = 4 * kGiB;
  VmType type = VmType::kDesktop;
  uint64_t seed = 1;
};

class Vm {
 public:
  explicit Vm(const VmConfig& config);

  const VmConfig& config() const { return config_; }
  VmId id() const { return config_.id; }

  VmActivity activity() const { return activity_; }
  void set_activity(VmActivity a) { activity_ = a; }

  VmResidency residency() const { return residency_; }
  void set_residency(VmResidency r) { residency_ = r; }

  MemoryImage& image() { return image_; }
  const MemoryImage& image() const { return image_; }

  std::string DebugString() const;

 private:
  VmConfig config_;
  VmActivity activity_ = VmActivity::kActive;
  VmResidency residency_ = VmResidency::kFullAtHome;
  MemoryImage image_;
};

}  // namespace oasis

#endif  // OASIS_SRC_HYPER_VM_H_
