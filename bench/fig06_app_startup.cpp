// Figure 6: application start-up latency in a full VM vs a partial VM whose
// pages fault in from the memory server.
//
// Paper reference points: partial VMs start applications up to 111x slower;
// a LibreOffice document takes ~168 s vs pre-fetching the VM's entire
// remaining state in ~41 s — which is why active partial VMs are converted
// to full VMs (§4.4.4).

#include <cstdio>
#include <iostream>

#include "src/common/table.h"
#include "src/hyper/memory_server.h"
#include "src/hyper/memtap.h"
#include "src/hyper/migration_model.h"
#include "src/hyper/workloads.h"
#include "src/check/run_scope.h"

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  PrintExperimentHeader(std::cout, "Figure 6 - Application start-up latency",
                        "Full VM vs partial VM (demand paging through the memory server).");

  MemoryServer server;
  server.Upload(SimTime::Zero(), 1, 1306 * kMiB);
  constexpr uint64_t kVmPages = (4 * kGiB) / kPageSize;

  TextTable table({"application", "full VM (s)", "partial VM (s)", "slowdown"});
  double worst_slowdown = 0.0;
  for (const AppStartupProfile& app : Figure6Applications()) {
    Memtap memtap(&server, 1, kVmPages, app.startup_working_set ^ 0x5EED);
    StatusOr<SimTime> partial = SimulatePartialVmAppStart(app, memtap, SimTime::Zero());
    if (!partial.ok()) {
      std::fprintf(stderr, "error: %s\n", partial.status().ToString().c_str());
      return 1;
    }
    double slowdown = partial->seconds() / app.full_vm_startup.seconds();
    worst_slowdown = std::max(worst_slowdown, slowdown);
    table.AddRow({app.name, TextTable::Num(app.full_vm_startup.seconds(), 1),
                  TextTable::Num(partial->seconds(), 1),
                  TextTable::Num(slowdown, 0) + "x"});
  }
  table.Print(std::cout);

  double prefetch = PlanFullMigration(4 * kGiB).duration.seconds();
  std::printf("\nWorst slowdown: %.0fx (paper: up to 111x).\n", worst_slowdown);
  std::printf("Pre-fetching the VM's entire remaining state takes only %.0f s (paper: 41 s),\n"
              "so Oasis converts activating partial VMs into full VMs instead of letting\n"
              "them run on demand paging.\n",
              prefetch);
  return 0;
}
