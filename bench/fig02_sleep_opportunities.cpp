// Figure 2: server sleep opportunities while serving page requests,
// 1 idle database VM vs 10 co-located idle VMs (5 web + 5 db).
//
// Paper reference points: mean inter-arrival 3.9 minutes (1 VM) collapses to
// 5.8 seconds (10 VMs) — about the S3 round-trip — so a host that must wake
// per request can no longer sleep at all.

#include <cstdio>
#include <iostream>
#include <vector>

#include "src/common/table.h"
#include "src/mem/access_generator.h"
#include "src/power/power_model.h"
#include "src/check/run_scope.h"

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  PrintExperimentHeader(
      std::cout, "Figure 2 - Sleep opportunities with 1 VM vs 10 VMs",
      "Host wakes per page-request burst; S3 suspend 3.1 s, resume 2.3 s, 10 s linger.");

  HostPowerProfile power;
  const SimTime horizon = SimTime::Hours(12);
  const SimTime linger = SimTime::Seconds(10);

  // Single database VM.
  IdleAccessGenerator db(VmType::kDatabase, 1);
  SleepOpportunity one = ComputeSleepOpportunity(db.GenerateBurstTimes(horizon), horizon,
                                                 power.suspend_latency, power.resume_latency,
                                                 linger);

  // Ten co-located VMs: 5 web + 5 db.
  std::vector<std::vector<SimTime>> streams;
  for (int i = 0; i < 5; ++i) {
    IdleAccessGenerator web(VmType::kWebServer, 100 + i);
    IdleAccessGenerator db2(VmType::kDatabase, 200 + i);
    streams.push_back(web.GenerateBurstTimes(horizon));
    streams.push_back(db2.GenerateBurstTimes(horizon));
  }
  SleepOpportunity ten =
      ComputeSleepOpportunity(MergeRequestStreams(streams), horizon, power.suspend_latency,
                              power.resume_latency, linger);

  TextTable table({"configuration", "requests", "mean gap", "sleep fraction",
                   "sleep episodes", "effective draw (W)"});
  auto effective_draw = [&](const SleepOpportunity& s) {
    return s.sleep_fraction * power.sleep_watts + (1.0 - s.sleep_fraction) * power.idle_watts;
  };
  table.AddRow({"1 database VM", std::to_string(one.requests),
                TextTable::Num(one.mean_gap_seconds / 60.0, 1) + " min",
                TextTable::Pct(one.sleep_fraction), std::to_string(one.sleep_episodes),
                TextTable::Num(effective_draw(one), 1)});
  table.AddRow({"10 VMs (5 web + 5 db)", std::to_string(ten.requests),
                TextTable::Num(ten.mean_gap_seconds, 1) + " s",
                TextTable::Pct(ten.sleep_fraction), std::to_string(ten.sleep_episodes),
                TextTable::Num(effective_draw(ten), 1)});
  table.Print(std::cout);

  std::printf("\nPaper: 3.9 min -> 5.8 s mean gap; S3 round-trip is %.1f s, so the 10-VM\n"
              "host has effectively no opportunity to sleep (motivating the low-power\n"
              "memory server of Section 3.3).\n",
              (power.suspend_latency + power.resume_latency).seconds());

  // Extension: how quickly co-location destroys sleep as VMs accumulate.
  std::printf("\nSweep: sleep opportunity vs co-located idle VMs (half web, half db):\n");
  TextTable sweep({"VMs", "mean gap (s)", "sleep fraction"});
  for (int n : {1, 2, 4, 6, 8, 10, 15, 20, 30}) {
    std::vector<std::vector<SimTime>> vm_streams;
    for (int i = 0; i < n; ++i) {
      IdleAccessGenerator gen(i % 2 == 0 ? VmType::kDatabase : VmType::kWebServer,
                              1000 + static_cast<uint64_t>(i));
      vm_streams.push_back(gen.GenerateBurstTimes(horizon));
    }
    SleepOpportunity s =
        ComputeSleepOpportunity(MergeRequestStreams(vm_streams), horizon,
                                power.suspend_latency, power.resume_latency, linger);
    sweep.AddRow({std::to_string(n), TextTable::Num(s.mean_gap_seconds, 1),
                  TextTable::Pct(s.sleep_fraction)});
  }
  sweep.Print(std::cout);
  return 0;
}
