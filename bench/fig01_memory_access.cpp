// Figure 1: cumulative unique memory touched by idle VMs over one hour.
//
// Paper reference points (4 GiB VMs, 1 idle hour):
//   desktop 188.2 MiB, web server 37.6 MiB, database 30.6 MiB  (< 5% of RAM)

#include <cstdio>
#include <iostream>

#include "src/common/table.h"
#include "src/mem/access_generator.h"
#include "src/check/run_scope.h"

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  PrintExperimentHeader(std::cout, "Figure 1 - Memory access pattern of idle VMs",
                        "Cumulative unique MiB touched while idle (4 GiB allocation).");

  IdleAccessGenerator desktop(VmType::kDesktop, 1);
  IdleAccessGenerator web(VmType::kWebServer, 2);
  IdleAccessGenerator db(VmType::kDatabase, 3);

  TextTable table({"idle minutes", "desktop (MiB)", "web (MiB)", "database (MiB)"});
  for (int minute : {1, 2, 5, 10, 15, 20, 30, 40, 50, 60}) {
    SimTime t = SimTime::Minutes(minute);
    table.AddRow({std::to_string(minute),
                  TextTable::Num(ToMiB(desktop.CumulativeUniqueBytes(t)), 1),
                  TextTable::Num(ToMiB(web.CumulativeUniqueBytes(t)), 1),
                  TextTable::Num(ToMiB(db.CumulativeUniqueBytes(t)), 1)});
  }
  table.Print(std::cout);

  SimTime hour = SimTime::Hours(1);
  std::printf("\nAfter 1 idle hour (paper: desktop 188.2, web 37.6, db 30.6 MiB):\n");
  std::printf("  desktop %.1f MiB (%.2f%% of 4 GiB), web %.1f MiB, db %.1f MiB\n",
              ToMiB(desktop.CumulativeUniqueBytes(hour)),
              100.0 * static_cast<double>(desktop.CumulativeUniqueBytes(hour)) / (4.0 * kGiB),
              ToMiB(web.CumulativeUniqueBytes(hour)),
              ToMiB(db.CumulativeUniqueBytes(hour)));
  return 0;
}
