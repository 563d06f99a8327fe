// Walks one VM through the complete hybrid-consolidation mechanism at the
// hypervisor level — the §4.4 micro-benchmark as an annotated narrative:
// priming, memory upload, descriptor push, demand paging through the memory
// server, dirtying, and reintegration.

#include <cstdio>

#include "src/hyper/memory_server.h"
#include "src/hyper/memtap.h"
#include "src/hyper/migration_model.h"
#include "src/hyper/workloads.h"
#include "src/check/run_scope.h"
#include "src/obs/obs.h"

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;

  std::printf("=== Oasis partial VM migration, step by step ===\n\n");

  // 1. A 4 GiB desktop VM boots and runs the Table 2 multitasking workload.
  VmConfig config;
  config.id = 1001;
  config.memory_bytes = 4 * kGiB;
  config.seed = 7;
  obs::ApplySeedOverride(&config.seed);
  Vm vm(config);
  ApplyWorkload(vm, BaseSystemFootprint());
  ApplyWorkload(vm, DesktopWorkload1());
  std::printf("1. primed %s\n   touched %s of %s (%.0f%% of allocation)\n",
              vm.DebugString().c_str(), FormatBytes(vm.image().touched_bytes()).c_str(),
              FormatBytes(vm.image().total_bytes()).c_str(),
              100.0 * static_cast<double>(vm.image().touched_bytes()) /
                  static_cast<double>(vm.image().total_bytes()));

  // 2. The user goes idle; five minutes later the cluster manager decides to
  //    consolidate. The agent compresses and uploads the memory image to the
  //    host's memory server over the shared SAS drive.
  ApplyWorkload(vm, IdleBackgroundChurn(SimTime::Minutes(5)));
  MemoryServer server;
  PartialMigrationPlan plan = ExecutePartialMigration(vm, /*differential=*/false);
  SimTime clock = server.Upload(SimTime::Zero(), vm.id(), plan.upload_bytes_compressed);
  vm.set_activity(VmActivity::kIdle);
  vm.set_residency(VmResidency::kPartial);
  std::printf("\n2. partial migration: uploaded %s compressed (%s raw) in %.1f s,\n"
              "   descriptor push %.1f s -> total %.1f s (vs %.1f s full migration)\n",
              FormatBytes(plan.upload_bytes_compressed).c_str(),
              FormatBytes(plan.upload_bytes_raw).c_str(), plan.upload_time.seconds(),
              plan.descriptor_time.seconds(), plan.total.seconds(),
              PlanFullMigration(config.memory_bytes).duration.seconds());

  // 3. The home host sleeps; the partial VM faults pages in on demand.
  std::printf("\n3. home host suspends to S3 (3.1 s); its 42.2 W memory server keeps\n"
              "   serving page requests while the host draws 12.9 W\n");
  Memtap memtap(&server, vm.id(), vm.image().total_pages(), 99);
  StatusOr<SimTime> stall = memtap.FaultInMany(clock, 14563 /* ~57 MiB */, 0.3);
  if (!stall.ok()) {
    std::fprintf(stderr, "fault error: %s\n", stall.status().ToString().c_str());
    return 1;
  }
  std::printf("   20 idle minutes on the consolidation host: fetched %s on demand\n"
              "   (%llu faults, %.1f%% chunk-cache hits, %.2f ms mean service time)\n",
              FormatBytes(memtap.bytes_fetched()).c_str(),
              static_cast<unsigned long long>(memtap.pages_fetched()),
              100.0 * static_cast<double>(server.cache_hits()) /
                  static_cast<double>(server.pages_served()),
              stall->seconds() * 1000.0 / static_cast<double>(memtap.pages_fetched()));

  // 4. The user returns: reintegrate the dirty state back home.
  uint64_t dirty = MiBToBytes(175.3);
  vm.image().DirtyTouchedPages(dirty / kPageSize);
  ReintegrationPlan reint = PlanReintegration(dirty);
  vm.set_activity(VmActivity::kActive);
  vm.set_residency(VmResidency::kFullAtHome);
  server.Remove(vm.id());
  std::printf("\n4. user active again: home wakes (2.3 s), %s of dirty state reintegrates\n"
              "   in %.1f s; the memory server image is released\n",
              FormatBytes(reint.dirty_bytes).c_str(), reint.duration.seconds());

  // 5. Next consolidation only uploads the delta.
  ApplyWorkload(vm, DesktopWorkload2());
  ApplyWorkload(vm, IdleBackgroundChurn(SimTime::Minutes(5)));
  PartialMigrationPlan delta = ExecutePartialMigration(vm, /*differential=*/true);
  std::printf("\n5. next idle period: differential upload moves only %s -> %.1f s total\n"
              "   (first migration was %.1f s)\n",
              FormatBytes(delta.upload_bytes_compressed).c_str(), delta.total.seconds(),
              plan.total.seconds());

  std::printf("\ndone: %s\n", vm.DebugString().c_str());
  return 0;
}
