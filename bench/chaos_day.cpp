// Chaos day: one full simulated cluster day with every live fault class
// (kLiveFaultClasses) enabled at the FaultConfig::ChaosDay() rates — host
// crashes, WoL packet loss, S3 resume hangs, memory-server failures and
// migration-stream aborts — next to a fault-free control run with the same
// seed.
//
// The run is fully deterministic: re-running (or overriding OASIS_SEED) makes
// the same faults fire at the same sim-times. The report shows the per-class
// injected/recovered/skipped accounting and what the chaos cost in energy
// and user-visible latency. Export the pairing evidence with
//
//   OASIS_TRACE=chaos.jsonl OASIS_METRICS=chaos.csv ./build/bench/chaos_day

#include <cstdio>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/exp/exp.h"
#include "src/fault/fault.h"
#include "src/check/run_scope.h"
#include "src/trace/trace_generator.h"

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  PrintExperimentHeader(std::cout, "Chaos day - failure injection and recovery",
                        "One simulated day of the 30+4 rack under ChaosDay fault rates "
                        "vs a fault-free control run with the same seed. Every injected "
                        "fault must pair with a completed recovery.");

  SimulationConfig config = PaperCluster(ConsolidationPolicy::kFullToPartial, 4,
                                         DayKind::kWeekday);
  TraceGenerator generator(config.trace, config.seed ^ 0x7ACEBA5Eull);
  TraceSet trace = generator.GenerateTraceSet(config.cluster.TotalVms(), config.day);

  // Control and chaos share one pre-generated trace (fixed_trace pins it)
  // and differ only in the fault config — two independent runs the
  // experiment runner can execute side by side.
  SimulationConfig control_config = config;
  control_config.fixed_trace = trace;
  SimulationConfig chaos_config = control_config;
  chaos_config.cluster.fault = FaultConfig::ChaosDay();

  exp::ExperimentPlan plan;
  plan.Add(control_config);
  plan.Add(chaos_config);
  std::vector<SimulationResult> results = exp::RunParallel(plan);
  const ClusterMetrics& control_metrics = results[0].metrics;
  const ClusterMetrics& chaos_metrics = results[1].metrics;

  TextTable faults({"fault class", "injected", "recovered", "skipped"});
  std::string unpaired;
  for (FaultClass fault : kLiveFaultClasses) {
    int c = static_cast<int>(fault);
    uint64_t injected = chaos_metrics.fault_injected_by_class[c];
    uint64_t recovered = chaos_metrics.fault_recovered_by_class[c];
    faults.AddRow({FaultClassName(fault), std::to_string(injected),
                   std::to_string(recovered),
                   std::to_string(chaos_metrics.fault_skipped_by_class[c])});
    if (injected != recovered) {
      unpaired += std::string(unpaired.empty() ? "" : ", ") + FaultClassName(fault);
    }
  }
  faults.Print(std::cout);

  TextTable impact({"metric", "control", "chaos"});
  impact.AddRow({"energy savings (%)",
                 TextTable::Num(100.0 * control_metrics.EnergySavings(), 1),
                 TextTable::Num(100.0 * chaos_metrics.EnergySavings(), 1)});
  impact.AddRow({"total energy (kWh)", TextTable::Num(ToKWh(control_metrics.TotalEnergy()), 2),
                 TextTable::Num(ToKWh(chaos_metrics.TotalEnergy()), 2)});
  impact.AddRow({"transition delay p95 (s)",
                 TextTable::Num(control_metrics.transition_delay_s.Quantile(0.95), 1),
                 TextTable::Num(chaos_metrics.transition_delay_s.Quantile(0.95), 1)});
  impact.AddRow({"host wakes", std::to_string(control_metrics.host_wakes),
                 std::to_string(chaos_metrics.host_wakes)});
  impact.AddRow({"reintegrations", std::to_string(control_metrics.reintegrations),
                 std::to_string(chaos_metrics.reintegrations)});
  impact.AddRow({"VM restarts after crashes", std::to_string(control_metrics.crash_vm_restarts),
                 std::to_string(chaos_metrics.crash_vm_restarts)});
  impact.Print(std::cout);

  std::printf("\nfaults: %llu injected, %llu recovered (%s)\n",
              static_cast<unsigned long long>(chaos_metrics.faults_injected),
              static_cast<unsigned long long>(chaos_metrics.faults_recovered),
              unpaired.empty() ? "all paired"
                               : ("MISMATCH - unrecovered: " + unpaired).c_str());
  return unpaired.empty() ? 0 : 1;
}
