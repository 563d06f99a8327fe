// Migration costs: the one table of every migration cost the simulation
// charges, and the page-level model of full (pre-copy live) migration,
// partial migration (memory upload + descriptor push) and reintegration.
//
// The micro-benchmarks (§4.4) run the page-level model: they compute byte
// counts and latencies from MemoryImage state and the measured GigE testbed
// bandwidths. The cluster simulation (§5.1, "we use the conservative
// parameters from 4.4.2") does not run it; it charges the fixed §5.1 costs
// below. Both read the same descriptor size and fixed reintegration cost.
// The model and §5.1 differ deliberately in two places, the second partial
// migration and reintegration; tests/migration_model_test.cpp prints and
// bounds both gaps.

#ifndef OASIS_SRC_HYPER_MIGRATION_MODEL_H_
#define OASIS_SRC_HYPER_MIGRATION_MODEL_H_

#include <cstdint>

#include "src/common/units.h"
#include "src/hyper/vm.h"

namespace oasis {

// --- the migration cost table ------------------------------------------------
// The values are literal, not derived from the VM size or link rates, so
// SimTime::Seconds' truncation cannot shift them by a microsecond.

// Shared by the cluster and the model. The descriptor (page tables,
// execution context, device state) pushed to create a partial VM: §4.4.3
// measures 16.0±0.5 MiB. The fixed part of a reintegration (suspend the
// partial VM, rebuild page tables, resume): §4.4.2.
inline constexpr uint64_t kDescriptorBytes = 16 * kMiB;
inline constexpr SimTime kReintegrationFixed = SimTime::Seconds(2.2);

// §5.1, the cluster simulation. Pre-copy live migration over the rack's
// 10 GigE: a 4 GiB VM in 10 s (Deshpande et al.), ~409.6 MiB/s once
// dirty-round overhead is folded in.
inline constexpr double kLiveMigrationBytesPerSec = 4.0 * 1024 * kMiB / 10.0;
inline constexpr SimTime kFullMigrationTime = SimTime::Seconds(10.0);
// A partial migration including its memory upload.
inline constexpr SimTime kPartialMigrationTime = SimTime::Seconds(7.2);
// The transfer part of a reintegration, which serializes on the destination
// host's NIC; with the fixed part, the paper's 3.7 s. An activation that
// needs no queue (convert in place, new home) waits the whole of it.
inline constexpr SimTime kReintegrationTransfer = SimTime::Seconds(1.5);
inline constexpr SimTime kReintegrationTime = kReintegrationFixed + kReintegrationTransfer;
// Compressed memory-upload volumes on the SAS channel (§4.4.2: the first
// upload pushes the whole touched image, later ones only the delta).
inline constexpr uint64_t kFirstUploadBytes = 1306 * kMiB;
inline constexpr uint64_t kRepeatUploadBytes = 282 * kMiB;

// §4.4, the page-level model on the GigE testbed. Pre-copy migrates a 4 GiB
// VM in 41 s (≈100 MiB/s once dirty rounds are folded in). The descriptor
// push costs a fixed control-plane overhead (create the partial VM,
// initialize vCPUs, install page tables) plus the transfer at GigE: ~5.2 s
// in total. Memory uploads run at the SAS rate and reintegration transfers
// at GigE (src/net/link.h).
inline constexpr double kTestbedLiveMigrationBytesPerSec = 4.0 * 1024 * kMiB / 41.0;
inline constexpr SimTime kDescriptorFixedOverhead = SimTime::Seconds(5.07);

// --- the §4.4 page-level model -----------------------------------------------

struct FullMigrationPlan {
  uint64_t bytes = 0;  // the VM's entire allocation crosses the network
  SimTime duration;
};

struct PartialMigrationPlan {
  uint64_t upload_pages = 0;             // pages written to the memory server
  uint64_t upload_bytes_raw = 0;         // their uncompressed size
  uint64_t upload_bytes_compressed = 0;  // what actually hits the SAS drive
  SimTime upload_time;
  uint64_t descriptor_bytes = 0;
  SimTime descriptor_time;
  SimTime total;
  bool differential = false;
};

struct ReintegrationPlan {
  uint64_t dirty_bytes = 0;
  SimTime duration;
};

// Live migration of the VM's full memory allocation on the testbed.
FullMigrationPlan PlanFullMigration(uint64_t memory_bytes);

// Partial migration of `vm`. Uploads the dirty-since-last-epoch set when
// `differential` (the §4.3 optimization) or every touched page otherwise,
// then pushes the descriptor. Consumes the image's dirty set.
PartialMigrationPlan ExecutePartialMigration(Vm& vm, bool differential);

// Latency/bytes of pushing `dirty_bytes` back to the VM's home.
ReintegrationPlan PlanReintegration(uint64_t dirty_bytes);

}  // namespace oasis

#endif  // OASIS_SRC_HYPER_MIGRATION_MODEL_H_
