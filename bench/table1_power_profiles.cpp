// Table 1: energy profiles and S3 transition times of the prototype host and
// memory-server components, plus derived quantities the evaluation uses.

#include <iostream>

#include "src/common/table.h"
#include "src/power/energy_meter.h"
#include "src/power/power_model.h"
#include "src/check/run_scope.h"

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  PrintExperimentHeader(std::cout, "Table 1 - Energy profiles and S3 transition times",
                        "Model constants as measured on the paper's custom host.");

  HostPowerProfile host;
  MemoryServerProfile ms;

  TextTable table({"device", "state", "time (s)", "power (W)"});
  table.AddRow({"Custom host", "idle", "-", TextTable::Num(host.idle_watts, 1)});
  table.AddRow({"Custom host", "20 VMs", "-", TextTable::Num(host.watts_at_20_vms, 1)});
  table.AddRow({"Custom host", "suspend", TextTable::Num(host.suspend_latency.seconds(), 1),
                TextTable::Num(host.suspend_watts, 1)});
  table.AddRow({"Custom host", "resume", TextTable::Num(host.resume_latency.seconds(), 1),
                TextTable::Num(host.resume_watts, 1)});
  table.AddRow({"Custom host", "sleep (S3)", "-", TextTable::Num(host.sleep_watts, 1)});
  table.AddRow({"Memory server", "idle", "-", TextTable::Num(ms.board_watts, 1)});
  table.AddRow({"SAS drive", "idle", "-", TextTable::Num(ms.drive_watts, 1)});
  table.Print(std::cout);

  std::cout << "\nDerived quantities:\n";
  TextTable derived({"quantity", "value"});
  derived.AddRow({"sleeping host + memory server (W)",
                  TextTable::Num(host.sleep_watts + ms.TotalWatts(), 1)});
  derived.AddRow({"headroom vs idle host (W)",
                  TextTable::Num(host.idle_watts - host.sleep_watts - ms.TotalWatts(), 1)});
  derived.AddRow({"per-VM increment below 20 VMs (W)", TextTable::Num(host.PerVmWatts(), 2)});

  // Energy of one full suspend/resume cycle, integrated with the meter.
  EnergyMeter meter(SimTime::Zero(), host.suspend_watts);
  SimTime t = host.suspend_latency;
  meter.SetDraw(t, host.resume_watts);
  t += host.resume_latency;
  meter.Advance(t);
  derived.AddRow({"one S3 round-trip (J)", TextTable::Num(meter.total_joules(), 0)});
  derived.AddRow(
      {"S3 round-trip break-even vs idle (s)",
       TextTable::Num(meter.total_joules() / (host.idle_watts - host.sleep_watts), 1)});
  derived.Print(std::cout);
  return 0;
}
