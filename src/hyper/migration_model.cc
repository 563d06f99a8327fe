#include "src/hyper/migration_model.h"

#include <string>

#include "src/check/check.h"
#include "src/net/link.h"

namespace oasis {
namespace {

// Time to move `bytes` at `bytes_per_sec`.
SimTime TransferTime(uint64_t bytes, double bytes_per_sec) {
  return SimTime::Seconds(static_cast<double>(bytes) / bytes_per_sec);
}

}  // namespace

FullMigrationPlan PlanFullMigration(uint64_t memory_bytes) {
  FullMigrationPlan plan;
  plan.bytes = memory_bytes;
  plan.duration = TransferTime(memory_bytes, kTestbedLiveMigrationBytesPerSec);
  return plan;
}

PartialMigrationPlan ExecutePartialMigration(Vm& vm, bool differential) {
  PartialMigrationPlan plan;
  plan.differential = differential;
  if (differential) {
    plan.upload_pages = vm.image().BeginUploadEpoch();
  } else {
    plan.upload_pages = vm.image().touched_pages();
    vm.image().BeginUploadEpoch();  // a full upload also resets the dirty set
  }
  plan.upload_bytes_raw = plan.upload_pages * kPageSize;
  plan.upload_bytes_compressed = vm.image().CompressedBytesFor(plan.upload_pages);
  plan.upload_time = TransferTime(plan.upload_bytes_compressed, kSasBytesPerSec);
  plan.descriptor_bytes = kDescriptorBytes;
  plan.descriptor_time =
      kDescriptorFixedOverhead + TransferTime(plan.descriptor_bytes, kGigEBytesPerSec);
  plan.total = plan.upload_time + plan.descriptor_time;
  if (check::InvariantChecker* c = check::InvariantChecker::IfEnabled()) {
    // Page/byte conservation for the partial-migration upload: the pages
    // sent are bounded by what the guest ever touched, compression never
    // inflates, and the epoch reset leaves no dirty page unaccounted.
    c->Expect(plan.upload_pages <= vm.image().touched_pages() ||
                  (!differential && plan.upload_pages == vm.image().touched_pages()),
              "migration.upload_within_touched", SimTime::Zero(),
              [&] {
                return "upload of " + std::to_string(plan.upload_pages) +
                       " pages exceeds touched set of " +
                       std::to_string(vm.image().touched_pages()) + " pages";
              },
              obs::TraceArgs{-1, -1, static_cast<int64_t>(plan.upload_bytes_raw)});
    c->Expect(plan.upload_bytes_compressed <= plan.upload_bytes_raw,
              "migration.compression_never_inflates", SimTime::Zero(), [&] {
                return "compressed " + std::to_string(plan.upload_bytes_compressed) +
                       " B exceeds raw " + std::to_string(plan.upload_bytes_raw) + " B";
              });
    c->Expect(vm.image().dirty_pages() == 0, "migration.upload_clears_dirty",
              SimTime::Zero(), [&] {
                return std::to_string(vm.image().dirty_pages()) +
                       " dirty pages survived the upload epoch reset";
              });
  }
  return plan;
}

ReintegrationPlan PlanReintegration(uint64_t dirty_bytes) {
  ReintegrationPlan plan;
  plan.dirty_bytes = dirty_bytes;
  plan.duration = kReintegrationFixed + TransferTime(dirty_bytes, kGigEBytesPerSec);
  return plan;
}

}  // namespace oasis
