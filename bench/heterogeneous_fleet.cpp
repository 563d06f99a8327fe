// Heterogeneous fleets: every registered strategy on a mixed-generation rack.
//
// The paper evaluates one host model (Table 1); real clusters run several
// procurement generations side by side. This bench builds the standard
// 30+4 weekday rack from three catalog generations — table1 homes, hungry
// legacy-no-s3 homes that cannot enter S3, and efficient-v2 hosts with a
// cheaper sleep state and 25% more memory — and compares all four registry
// strategies plus the offline oracle bound on the exact same days.
//
// The per-generation sleep columns are the point: every strategy's §3.1
// gate now prices each home at its own curve, and the s3 eligibility gate
// keeps legacy-no-s3 homes powered (they sponsor, but never sleep), so
// their band must read 0.0 while the S3-capable bands do the sleeping.
//
// Environment:
//   OASIS_FLEET=<gen:count,...>  overrides the default mix (generations from
//                                the src/power catalog). Anything malformed —
//                                including an unknown generation name — exits
//                                with status 2, matching the OASIS_CHECK /
//                                OASIS_DC_RACKS convention.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/check/check.h"
#include "src/cluster/oracle.h"
#include "src/cluster/strategy.h"
#include "src/common/table.h"
#include "src/exp/exp.h"
#include "src/obs/obs.h"
#include "src/power/host_profile.h"

namespace oasis {
namespace {

// Homes 0-9 run the paper's host, homes 10-19 the S3-incapable legacy
// boxes, homes 20-29 and all four consolidation hosts the efficient
// generation (the consolidation tier must be sleep-capable or nothing the
// drain saves comes back).
constexpr const char* kDefaultFleetSpec = "table1:10,legacy-no-s3:10,efficient-v2:14";

FleetMix FleetFromEnv() {
  const std::string spec = knobs::String(knobs::Knob::kFleet, kDefaultFleetSpec);
  StatusOr<FleetMix> mix = ParseFleetMix(spec);
  if (!mix.ok()) {
    const std::string accepted = "generation:count pairs from " + HostGenerationNames();
    knobs::Reject(knobs::Knob::kFleet, spec, accepted + " (" + mix.status().ToString() + ")");
  }
  return *mix;
}

uint64_t FnvFold(uint64_t hash, uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (value >> (b * 8)) & 0xFFu;
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void FleetSweep(int runs) {
  const FleetMix mix = FleetFromEnv();
  const std::vector<std::string>& names = RegisteredStrategyNames();

  exp::ExperimentPlan plan;
  std::vector<exp::RepetitionSpan> spans;
  uint64_t base_seed = 0;
  ClusterConfig oracle_cluster;
  for (const std::string& name : names) {
    SimulationConfig config =
        PaperCluster(ConsolidationPolicy::kFullToPartial, 4, DayKind::kWeekday);
    config.cluster.strategy_name = name;
    config.cluster.fleet = mix;
    Status valid = config.cluster.Validate();
    if (!valid.ok()) {
      const std::string spec = knobs::String(knobs::Knob::kFleet, kDefaultFleetSpec);
      knobs::Reject(knobs::Knob::kFleet, spec, "a 30+4-host fleet (" + valid.ToString() + ")");
    }
    base_seed = config.seed;
    oracle_cluster = config.cluster;
    spans.push_back(plan.AddRepetitions(config, runs));
  }
  std::vector<SimulationResult> results = exp::RunParallel(plan);

  // One oracle solve per repetition (the per-class DayModel prices each
  // home generation separately and never sleeps the legacy band), shared
  // across strategy rows exactly like ablation_policy.
  OfflineOracle solver(oracle_cluster);
  std::vector<OracleResult> oracle;
  oracle.reserve(static_cast<size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    const SimulationResult& rep = results[spans[0].first + static_cast<size_t>(r)];
    oracle.push_back(
        solver.Solve(rep.trace, exp::ExperimentPlan::DeriveSeed(base_seed, r)));
  }
  std::vector<double> mean_gap(names.size(), 0.0);
  for (size_t row = 0; row < names.size(); ++row) {
    for (int r = 0; r < runs; ++r) {
      const ClusterMetrics& m =
          results[spans[row].first + static_cast<size_t>(r)].metrics;
      mean_gap[row] += OptimalityGap(m.TotalEnergy(), oracle[static_cast<size_t>(r)]);
    }
    mean_gap[row] /= static_cast<double>(runs);
  }
  double oracle_savings = 0.0;
  double relaxed_savings = 0.0;
  for (const OracleResult& r : oracle) {
    oracle_savings += r.ScheduleSavings();
    relaxed_savings += 1.0 - r.relaxed_lower_bound / r.baseline_energy;
  }
  oracle_savings /= static_cast<double>(runs);
  relaxed_savings /= static_cast<double>(runs);

  std::printf("fleet:");
  for (const FleetSegment& segment : mix.segments) {
    std::printf(" %s x %d", segment.generation.c_str(), segment.count);
  }
  std::printf("\n\n");

  // One sleep-hours-per-host column per fleet segment (profile class
  // k + 1); the uncovered class-0 remainder gets a column only if it has
  // hosts.
  std::vector<std::string> header = {"strategy", "savings", "gap vs oracle",
                                     "host sleeps"};
  for (const FleetSegment& segment : mix.segments) {
    header.push_back(segment.generation + " slp h");
  }
  const ClusterMetrics& probe =
      results[spans[0].first].metrics;
  const bool has_default_band =
      !probe.hosts_by_class.empty() && probe.hosts_by_class[0] > 0;
  if (has_default_band) {
    header.push_back("default slp h");
  }

  uint64_t digest = 1469598103934665603ULL;
  for (const OracleResult& r : oracle) {
    digest = FnvFold(digest, r.Digest());
  }

  TextTable table(header);
  for (size_t row = 0; row < names.size(); ++row) {
    RepeatedRunResult result = exp::CollectRepeated(results, spans[row]);
    const ClusterMetrics& m = result.runs[0].metrics;
    std::vector<std::string> cells = {names[row], TextTable::Pct(result.savings.mean()),
                                      TextTable::Pct(mean_gap[row]),
                                      std::to_string(m.host_sleeps)};
    auto band_hours = [&m](size_t cls) {
      if (cls >= m.hosts_by_class.size() || m.hosts_by_class[cls] == 0) {
        return 0.0;
      }
      return m.host_sleep_seconds_by_class[cls] / 3600.0 /
             static_cast<double>(m.hosts_by_class[cls]);
    };
    for (size_t s = 0; s < mix.segments.size(); ++s) {
      cells.push_back(TextTable::Num(band_hours(s + 1), 1));
    }
    if (has_default_band) {
      cells.push_back(TextTable::Num(band_hours(0), 1));
    }
    table.AddRow(cells);
    digest = FnvFold(digest, DoubleBits(result.savings.mean()));
  }
  table.Print(std::cout);
  std::printf("\noracle: hindsight schedule saves %.1f%% (relaxed interval bound %.1f%%), "
              "digest 0x%016" PRIx64 "\n",
              oracle_savings * 100.0, relaxed_savings * 100.0, digest);
  std::printf(
      "\nEach home is priced at its own generation's curve: vacating a table1\n"
      "home saves more absolute watts than an efficient-v2 home, and the s3\n"
      "eligibility gate never parks a legacy-no-s3 home at all — its sleep\n"
      "column must read 0.0 while it keeps sponsoring guests. The oracle bound\n"
      "prices the same mixed fleet per class, so \"gap vs oracle\" stays\n"
      "comparable across generations.\n");
}

}  // namespace
}  // namespace oasis

int main() {
  // Invariant checking per OASIS_CHECK (off | warn | strict); declared
  // before ObsScope so traces flush before any strict exit.
  oasis::check::CheckScope check_scope;
  oasis::obs::ObsScope obs_scope;
  using namespace oasis;
  PrintExperimentHeader(std::cout, "Heterogeneous fleet - mixed host generations",
                        "The standard 30+4 weekday rack built from three catalog "
                        "generations (table1, legacy-no-s3, efficient-v2): every "
                        "registered strategy prices per-host power curves, the s3 "
                        "gate keeps incapable homes powered, and the oracle bound "
                        "prices the same mix per class.");
  FleetSweep(std::max(1, BenchRuns() - 2));
  return 0;
}
