// Shared helpers for the table/figure reproduction harnesses.

#ifndef OASIS_BENCH_BENCH_UTIL_H_
#define OASIS_BENCH_BENCH_UTIL_H_

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "src/cluster/strategy.h"
#include "src/core/oasis.h"
#include "src/obs/obs.h"

namespace oasis {

// The paper's standard rack: 30 home hosts x 30 VMs plus N consolidation
// hosts (§5.1).
inline SimulationConfig PaperCluster(ConsolidationPolicy policy, int consolidation_hosts,
                                     DayKind day) {
  SimulationConfig config;
  config.cluster.num_home_hosts = 30;
  config.cluster.num_consolidation_hosts = consolidation_hosts;
  config.cluster.vms_per_home = 30;
  config.cluster.policy = policy;
  config.day = day;
  config.seed = 20160418;  // EuroSys'16 opening day
  obs::ApplySeedOverride(&config.seed);
  // Honour OASIS_POLICY; per-experiment strategy_name assignments made
  // after this call still win (the ablation harness relies on that).
  ApplyPolicyOverride(&config.cluster);
  return config;
}

// Number of repetitions per datapoint (§5.3 averages five runs). Override
// with OASIS_BENCH_RUNS for quicker smoke runs; a value that is not a
// positive integer exits with status 2.
inline int BenchRuns() {
  const char* env = std::getenv("OASIS_BENCH_RUNS");
  if (env == nullptr || *env == '\0') {
    return 5;
  }
  char* end = nullptr;
  long n = std::strtol(env, &end, 10);
  if (*end != '\0' || n <= 0 || n > INT_MAX) {
    std::fprintf(stderr, "OASIS_BENCH_RUNS=%s is not a positive integer (repetitions)\n", env);
    std::exit(2);
  }
  return static_cast<int>(n);
}

// When OASIS_CSV_DIR is set, benches also write their data series as
// <dir>/<name>.csv for external plotting. Returns nullptr otherwise.
inline std::unique_ptr<std::ofstream> CsvFileFor(const std::string& name) {
  const char* dir = std::getenv("OASIS_CSV_DIR");
  if (dir == nullptr || *dir == '\0') {
    return nullptr;
  }
  auto file = std::make_unique<std::ofstream>(std::string(dir) + "/" + name + ".csv");
  if (!*file) {
    return nullptr;
  }
  return file;
}

inline const ConsolidationPolicy kAllPolicies[] = {
    ConsolidationPolicy::kOnlyPartial,
    ConsolidationPolicy::kDefault,
    ConsolidationPolicy::kFullToPartial,
    ConsolidationPolicy::kNewHome,
};

}  // namespace oasis

#endif  // OASIS_BENCH_BENCH_UTIL_H_
