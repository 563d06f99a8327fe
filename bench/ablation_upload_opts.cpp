// Ablation: the two memory-upload optimizations of §4.3 — per-page
// compression and differential upload — plus the memory server's chunk
// cache. Quantifies how much each contributes to the Fig 5 latencies.

#include <cstdio>
#include <iostream>

#include "src/common/table.h"
#include "src/hyper/memory_server.h"
#include "src/hyper/memtap.h"
#include "src/hyper/migration_model.h"
#include "src/hyper/workloads.h"
#include "src/check/check.h"
#include "src/obs/obs.h"

namespace oasis {
namespace {

Vm PrimedVm(uint64_t seed) {
  VmConfig config;
  config.memory_bytes = 4 * kGiB;
  config.seed = seed;
  Vm vm(config);
  ApplyWorkload(vm, BaseSystemFootprint());
  ApplyWorkload(vm, DesktopWorkload1());
  ApplyWorkload(vm, IdleBackgroundChurn(SimTime::Minutes(5)));
  return vm;
}

double UploadSeconds(uint64_t bytes) {
  return static_cast<double>(bytes) / kSasBytesPerSec;
}

}  // namespace
}  // namespace oasis

int main() {
  // Honour OASIS_TRACE / OASIS_METRICS / OASIS_LOG_LEVEL for this run.
  // Invariant checking per OASIS_CHECK (off | warn | strict); declared
  // before ObsScope so traces flush before any strict exit.
  oasis::check::CheckScope check_scope;
  oasis::obs::ObsScope obs_scope;
  using namespace oasis;
  PrintExperimentHeader(std::cout, "Ablation - memory upload optimizations (section 4.3)",
                        "Contribution of per-page compression and differential upload to "
                        "partial-migration latency, plus the chunk cache's effect on "
                        "demand paging.");

  // --- First upload: with and without compression -------------------------
  uint64_t vm_seed = 1;
  obs::ApplySeedOverride(&vm_seed);
  Vm vm1 = PrimedVm(vm_seed);
  PartialMigrationPlan first = ExecutePartialMigration(vm1, /*differential=*/false);
  double compressed_s = UploadSeconds(first.upload_bytes_compressed);
  double raw_s = UploadSeconds(first.upload_bytes_raw);

  // --- Second upload: differential vs full re-upload ----------------------
  vm1.image().DirtyTouchedPages(MiBToBytes(175.3) / kPageSize);
  ApplyWorkload(vm1, DesktopWorkload2());
  ApplyWorkload(vm1, IdleBackgroundChurn(SimTime::Minutes(5)));
  uint64_t dirty_pages = vm1.image().dirty_pages();
  uint64_t touched_pages = vm1.image().touched_pages();
  double diff_s = UploadSeconds(vm1.image().CompressedBytesFor(dirty_pages));
  double full_again_s = UploadSeconds(vm1.image().CompressedBytesFor(touched_pages));

  TextTable table({"upload variant", "bytes on SAS", "upload time (s)"});
  table.AddRow({"#1 compressed (shipped)",
                FormatBytes(vm1.image().CompressedBytesFor(touched_pages)),
                TextTable::Num(compressed_s, 1)});
  table.AddRow({"#1 uncompressed (ablated)", FormatBytes(first.upload_bytes_raw),
                TextTable::Num(raw_s, 1)});
  table.AddRow({"#2 differential (shipped)",
                FormatBytes(vm1.image().CompressedBytesFor(dirty_pages)),
                TextTable::Num(diff_s, 1)});
  table.AddRow({"#2 full re-upload (ablated)",
                FormatBytes(vm1.image().CompressedBytesFor(touched_pages)),
                TextTable::Num(full_again_s, 1)});
  table.Print(std::cout);
  std::printf("\ncompression cuts the first upload %.1fx; differential upload cuts the\n"
              "second %.1fx — together they turn a %.0f s upload into %.1f s.\n",
              raw_s / compressed_s, full_again_s / diff_s, raw_s, diff_s);

  // --- Chunk cache ablation on demand paging -------------------------------
  constexpr uint64_t kVmPages = (4 * kGiB) / kPageSize;
  AppStartupProfile app{"LibreOffice (document)", 131 * kMiB, SimTime::Seconds(1.5)};

  MemoryServerConfig with_cache;
  MemoryServerConfig no_cache;
  no_cache.chunk_cache_entries = 0;
  MemoryServer cached(with_cache);
  MemoryServer uncached(no_cache);
  cached.Upload(SimTime::Zero(), 1, 1306 * kMiB);
  uncached.Upload(SimTime::Zero(), 1, 1306 * kMiB);
  Memtap tap_cached(&cached, 1, kVmPages, 3);
  Memtap tap_uncached(&uncached, 1, kVmPages, 3);
  auto start_cached = SimulatePartialVmAppStart(app, tap_cached, SimTime::Zero());
  auto start_uncached = SimulatePartialVmAppStart(app, tap_uncached, SimTime::Zero());
  if (start_cached.ok() && start_uncached.ok()) {
    std::printf("\nchunk cache: LibreOffice partial-VM start %.1f s with cache vs %.1f s\n"
                "without (%.0f%% of faults hit a warm 2 MiB chunk).\n",
                start_cached->seconds(), start_uncached->seconds(),
                100.0 * static_cast<double>(cached.cache_hits()) /
                    static_cast<double>(cached.pages_served()));
  }
  return 0;
}
