// Rack-day benchmark driver; perfbench/run.py builds and runs it.
//
// It times only calls into the simulator's public entry points:
// ClusterSimulation::Run, dc::ShardRunner::Run, dc::GlobalCoordinator::
// Coordinate and dc::DatacenterLedger::Build, plus — in the traced mode — the
// TraceGenerator::GenerateTraceSet / ClusterManager constructor / Run calls
// that ClusterSimulation::Run composes. No span lives inside src/.
//
//   oasis_bench --workload weekday-greedy|weekend-local|datacenter
//               --mode setup|run|traced --seed N --seconds S
//               [--size full|tiny] [--jobs J]
//
// setup   builds the inputs and warms up (one rack-day per grid cell, or one
//         rack per worker through the shard runner), then reports the
//         process's CPU time so far.
// run     setup, then a closed loop of repetitions until --seconds elapse.
//         A repetition is the workload's whole input set, identical every
//         time, so its digest must repeat exactly.
// traced  setup, then rounds of four passes over one repetition: plain,
//         split (trace generation / manager construction / manager run
//         timed apart), under the OASIS_PROF summary profiler, and under an
//         installed warn-mode invariant checker.
//
// Stdout is one JSON object of raw measurements; run.py derives the metrics.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/check/check.h"
#include "src/cluster/manager.h"
#include "src/common/log.h"
#include "src/core/oasis.h"
#include "src/dc/coordinator.h"
#include "src/dc/ledger.h"
#include "src/dc/runner.h"
#include "src/dc/topology.h"
#include "src/exp/exp.h"
#include "src/obs/prof.h"
#include "src/trace/trace_generator.h"

namespace oasis {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// FNV-1a over 64-bit words; doubles fold by bit pattern, so a digest pins
// exact floating-point results.
struct Fnv {
  uint64_t h = 1469598103934665603ull;

  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Samples(const EmpiricalCdf& cdf) {
    U64(cdf.count());
    if (!cdf.empty()) {
      for (double x : cdf.sorted_samples()) {
        F64(x);
      }
    }
  }
};

// Everything a rack-day reports: energy, timeline, distributions, traffic,
// per-class ledgers and every counter.
void FoldMetrics(Fnv& fnv, const ClusterMetrics& m) {
  fnv.F64(m.home_host_energy);
  fnv.F64(m.consolidation_host_energy);
  fnv.F64(m.memory_server_energy);
  fnv.F64(m.baseline_energy);
  fnv.U64(m.timeline.size());
  for (const IntervalSnapshot& s : m.timeline) {
    fnv.U64(static_cast<uint64_t>(s.time.micros()));
    fnv.U64(static_cast<uint64_t>(s.active_vms));
    fnv.U64(static_cast<uint64_t>(s.powered_hosts));
    fnv.U64(static_cast<uint64_t>(s.powered_home_hosts));
    fnv.U64(static_cast<uint64_t>(s.powered_consolidation_hosts));
    fnv.U64(static_cast<uint64_t>(s.partial_vms));
    fnv.U64(static_cast<uint64_t>(s.full_at_consolidation_vms));
  }
  fnv.Samples(m.consolidation_ratio);
  fnv.Samples(m.transition_delay_s);
  for (int c = 0; c < static_cast<int>(TrafficCategory::kCategoryCount); ++c) {
    fnv.U64(m.traffic.Total(static_cast<TrafficCategory>(c)));
    fnv.U64(m.traffic.Count(static_cast<TrafficCategory>(c)));
  }
  for (int hosts : m.hosts_by_class) {
    fnv.U64(static_cast<uint64_t>(hosts));
  }
  for (double seconds : m.host_sleep_seconds_by_class) {
    fnv.F64(seconds);
  }
  for (uint64_t v : {m.full_migrations, m.partial_migrations, m.reintegrations, m.host_sleeps,
                     m.host_wakes, m.capacity_exhaustions, m.full_to_partial_swaps,
                     m.new_home_moves, m.faults_injected, m.faults_recovered,
                     m.crash_vm_restarts, m.events_dispatched}) {
    fnv.U64(v);
  }
  for (size_t c = 0; c < kNumFaultClasses; ++c) {
    fnv.U64(m.fault_injected_by_class[c]);
    fnv.U64(m.fault_recovered_by_class[c]);
    fnv.U64(m.fault_skipped_by_class[c]);
  }
}

// CPU seconds the calling thread has used so far. Serial rack-days are timed
// with it: unlike wall time it leaves out the time the host gives to other
// processes.
double ThreadCpuSeconds() {
  struct timespec ts = {};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// User + system CPU seconds this process has used so far, all threads.
double ProcessCpuSeconds() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

// Peak resident set of this process so far (Linux reports KiB).
double PeakRssMiB() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Sums over a set of rack-days: the simulated outputs and the per-layer
// counts the traced mode reports per rack-day.
struct DayTotals {
  int rack_days = 0;
  Joules energy = 0.0;
  Joules baseline = 0.0;
  EmpiricalCdf delay_s;
  uint64_t events = 0;
  uint64_t partial_vm_intervals = 0;
  uint64_t full_at_cons_vm_intervals = 0;
  uint64_t full_migrations = 0;
  uint64_t partial_migrations = 0;
  uint64_t reintegrations = 0;
  uint64_t host_wakes = 0;
  uint64_t host_sleeps = 0;
  uint64_t capacity_exhaustions = 0;
  uint64_t full_to_partial_swaps = 0;
  uint64_t faults_injected = 0;
  uint64_t faults_recovered = 0;
  uint64_t crash_vm_restarts = 0;
  uint64_t network_bytes = 0;

  void Add(const ClusterMetrics& m) {
    rack_days += 1;
    energy += m.TotalEnergy();
    baseline += m.baseline_energy;
    if (!m.transition_delay_s.empty()) {
      for (double x : m.transition_delay_s.sorted_samples()) {
        delay_s.Add(x);
      }
    }
    events += m.events_dispatched;
    for (const IntervalSnapshot& s : m.timeline) {
      partial_vm_intervals += static_cast<uint64_t>(s.partial_vms);
      full_at_cons_vm_intervals += static_cast<uint64_t>(s.full_at_consolidation_vms);
    }
    full_migrations += m.full_migrations;
    partial_migrations += m.partial_migrations;
    reintegrations += m.reintegrations;
    host_wakes += m.host_wakes;
    host_sleeps += m.host_sleeps;
    capacity_exhaustions += m.capacity_exhaustions;
    full_to_partial_swaps += m.full_to_partial_swaps;
    faults_injected += m.faults_injected;
    faults_recovered += m.faults_recovered;
    crash_vm_restarts += m.crash_vm_restarts;
    network_bytes += m.traffic.NetworkTotal();
  }
  double Savings() const { return baseline > 0.0 ? 1.0 - energy / baseline : 0.0; }
  double DelayP99() const { return delay_s.empty() ? 0.0 : delay_s.Quantile(0.99); }
  double PerDay(uint64_t v) const {
    return rack_days > 0 ? static_cast<double>(v) / rack_days : 0.0;
  }
};

// ---------------------------------------------------------------------------
// Command line.

struct Options {
  std::string workload;
  std::string mode;
  std::string size = "full";
  uint64_t seed = 0;
  double seconds = 0.0;
  int jobs = 0;  // 0 = min(4, hardware)
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "oasis_bench: %s\nusage: oasis_bench --workload "
               "weekday-greedy|weekend-local|datacenter --mode setup|run|traced --seed N "
               "--seconds S [--size full|tiny] [--jobs J]\n",
               why);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--mode") {
      o.mode = value;
    } else if (flag == "--size") {
      o.size = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
    } else if (flag == "--jobs") {
      o.jobs = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      Usage(("bad number for " + flag).c_str());
    }
  }
  if (o.workload != "weekday-greedy" && o.workload != "weekend-local" &&
      o.workload != "datacenter") {
    Usage("unknown workload");
  }
  if (o.mode != "setup" && o.mode != "run" && o.mode != "traced") {
    Usage("unknown mode");
  }
  if (o.size != "full" && o.size != "tiny") {
    Usage("unknown size");
  }
  if (!have_seed) {
    Usage("--seed is required");
  }
  if (!(o.seconds > 0.0) || o.jobs < 0) {
    Usage("--seconds must be positive and --jobs non-negative");
  }
  if (o.jobs == 0) {
    o.jobs = std::min(4, exp::HardwareJobs());
  }
  return o;
}

// ---------------------------------------------------------------------------
// Output: one flat JSON object, keys in insertion order.

class JsonOut {
 public:
  void Num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Str(const char* key, const std::string& v) { Raw(key, "\"" + v + "\""); }
  void Nums(const char* key, const std::vector<double>& values) {
    std::string list = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i > 0 ? "," : "", values[i]);
      list += buf;
    }
    Raw(key, list + "]");
  }
  void Strs(const char* key, const std::vector<std::string>& values) {
    std::string list = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      list += (i > 0 ? ",\"" : "\"") + values[i] + "\"";
    }
    Raw(key, list + "]");
  }
  void Raw(const char* key, const std::string& json) {
    body_ += (body_.empty() ? "{\"" : ",\"") + std::string(key) + "\":" + json;
  }
  std::string Text() const { return body_ + "}"; }
  void Print() const { std::printf("%s\n", Text().c_str()); }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Workloads.

bool IsDatacenter(const Options& o) { return o.workload == "datacenter"; }

// The Fig 12 grid: five homes x VMs shapes, each with 2, 3 and 4
// consolidation hosts, FullToPartial, `reps` seeds per cell (derived from
// --seed the way exp::ExperimentPlan::AddRepetitions derives them).
std::vector<SimulationConfig> RackGrid(const Options& o) {
  struct Shape {
    int homes;
    int vms_per_home;
  };
  const bool weekday = o.workload == "weekday-greedy";
  const bool tiny = o.size == "tiny";
  const std::vector<Shape> shapes =
      tiny ? std::vector<Shape>{{30, 30}}
           : std::vector<Shape>{{30, 30}, {20, 45}, {18, 50}, {15, 60}, {10, 90}};
  const std::vector<int> cons = tiny ? std::vector<int>{2} : std::vector<int>{2, 3, 4};
  // Seeds per cell: enough distinct rack-days that the simulated outputs
  // settle across --seed values; the weekend day is ~5x cheaper.
  const int reps = tiny ? 1 : (weekday ? 4 : 12);
  std::vector<SimulationConfig> grid;
  for (const Shape& shape : shapes) {
    for (int c : cons) {
      SimulationConfig config;
      config.cluster.num_home_hosts = shape.homes;
      config.cluster.num_consolidation_hosts = c;
      config.cluster.SetVmsPerHome(shape.vms_per_home);
      config.cluster.policy = ConsolidationPolicy::kFullToPartial;
      config.cluster.strategy_name = weekday ? "oasis-greedy" : "local-threshold";
      config.day = weekday ? DayKind::kWeekday : DayKind::kWeekend;
      for (int r = 0; r < reps; ++r) {
        config.seed = exp::ExperimentPlan::DeriveSeed(o.seed, r);
        grid.push_back(config);
      }
    }
  }
  return grid;
}

// bench/datacenter_day's rack shape, fault mix and power caps over a
// reduced rack count: one 32-rack pod, 4 racks at the tiny size.
dc::DatacenterTopology Datacenter(const Options& o, int racks) {
  dc::DatacenterConfig config;
  config.total_racks = racks;
  config.racks_per_pod = 32;
  config.rack.home_hosts = 36;
  config.rack.consolidation_hosts = 4;
  config.rack.vms_per_home = 110;
  config.rack.fault.enabled = true;
  config.rack.fault.host_crash_per_hour = 0.02;
  config.coordinator.rack_power_cap_watts = 3200.0;
  config.coordinator.cap_events_per_rack_day = 0.25;
  config.seed = o.seed;
  StatusOr<dc::DatacenterTopology> topology = dc::DatacenterTopology::Build(config);
  if (!topology.ok()) {
    std::fprintf(stderr, "invalid datacenter config: %s\n",
                 topology.status().ToString().c_str());
    std::exit(1);
  }
  return *topology;
}

const dc::CoordinatorMode kModes[] = {dc::CoordinatorMode::kOff,
                                      dc::CoordinatorMode::kGlobalGreedy,
                                      dc::CoordinatorMode::kAssisted};
constexpr int kNumModes = 3;

// One datacenter day: shards, then every coordinator mode and its ledger.
struct DcDay {
  dc::DatacenterRun run;
  double shards_s = 0.0;
  double shards_cpu_s = 0.0;  // CPU time of all workers during the shards
  double coordinate_s[kNumModes] = {};
  double ledger_s = 0.0;
  dc::CoordinatorStats assisted;
  double savings = 0.0;  // coordinator-assisted ledger savings
  uint64_t digest = 0;   // coordinator-off ledger digest + every rack's metrics
};

uint64_t DatacenterDigest(const dc::DatacenterRun& run, const dc::DatacenterLedger& off) {
  Fnv fnv;
  fnv.U64(off.Digest());
  for (const dc::RackResult& rack : run.racks) {
    FoldMetrics(fnv, rack.metrics);
  }
  return fnv.h;
}

DcDay RunDatacenterDay(const dc::DatacenterTopology& topology, int jobs) {
  DcDay day;
  const double cpu_start = ProcessCpuSeconds();
  Clock::time_point start = Clock::now();
  day.run = dc::ShardRunner(jobs).Run(topology);
  day.shards_s = SecondsSince(start);
  day.shards_cpu_s = ProcessCpuSeconds() - cpu_start;
  for (int i = 0; i < kNumModes; ++i) {
    dc::CoordinatorConfig config = day.run.config.coordinator;
    config.mode = kModes[i];
    start = Clock::now();
    const dc::CoordinatorStats stats = dc::GlobalCoordinator(config).Coordinate(day.run);
    day.coordinate_s[i] = SecondsSince(start);
    start = Clock::now();
    const dc::DatacenterLedger ledger = dc::DatacenterLedger::Build(day.run, stats);
    day.ledger_s += SecondsSince(start);
    if (kModes[i] == dc::CoordinatorMode::kOff) {
      day.digest = DatacenterDigest(day.run, ledger);
    } else if (kModes[i] == dc::CoordinatorMode::kAssisted) {
      day.assisted = stats;
      day.savings = ledger.CoordinatedSavings();
    }
  }
  return day;
}

// The inputs one process measures, built during set-up.
struct Inputs {
  std::vector<SimulationConfig> grid;  // rack workloads
  dc::DatacenterTopology topology;     // datacenter
};

Inputs SetUp(const Options& o) {
  Inputs in;
  if (IsDatacenter(o)) {
    const int racks = o.size == "tiny" ? 4 : 32;
    in.topology = Datacenter(o, racks);
    // Warm-up: one rack-day per worker through the shard runner, so the
    // pool and every worker's allocator arena exist before timing.
    dc::ShardRunner(o.jobs).Run(Datacenter(o, std::min(o.jobs, racks)));
  } else {
    in.grid = RackGrid(o);
    // Warm-up: one rack-day per grid cell, which takes the allocator to its
    // steady state (without it the first repetitions run ~30% slower).
    for (const SimulationConfig& config : in.grid) {
      if (config.seed == exp::ExperimentPlan::DeriveSeed(o.seed, 0)) {
        ClusterSimulation(config).Run();
      }
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// run: the untraced closed loop.

void RunLoop(const Options& o, const Inputs& in, double setup_s) {
  std::vector<double> sample_ms;
  std::vector<std::string> digests;
  DayTotals first;  // simulated outputs of the first repetition
  double savings = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // the simulating thread's, or the shard workers'
  int rack_days = 0;
  const Clock::time_point loop_start = Clock::now();
  do {
    Fnv fnv;
    if (IsDatacenter(o)) {
      const Clock::time_point start = Clock::now();
      DcDay day = RunDatacenterDay(in.topology, o.jobs);
      wall_s += SecondsSince(start);
      cpu_s += day.shards_cpu_s;
      const int racks = static_cast<int>(day.run.racks.size());
      // CPU time per rack-day: every worker's CPU time during the shards,
      // spread over the racks; the pool's idle tail is not counted.
      sample_ms.push_back(1e3 * day.shards_cpu_s / racks);
      rack_days += racks;
      if (digests.empty()) {
        for (const dc::RackResult& rack : day.run.racks) {
          first.Add(rack.metrics);
        }
        // Datacenter savings are the coordinator-assisted ledger's.
        savings = day.savings;
      }
      fnv.U64(day.digest);
    } else {
      for (const SimulationConfig& config : in.grid) {
        const Clock::time_point start = Clock::now();
        const double cpu_start = ThreadCpuSeconds();
        SimulationResult result = ClusterSimulation(config).Run();
        const double day_cpu_s = ThreadCpuSeconds() - cpu_start;
        wall_s += SecondsSince(start);
        cpu_s += day_cpu_s;
        sample_ms.push_back(1e3 * day_cpu_s);
        rack_days += 1;
        FoldMetrics(fnv, result.metrics);
        if (digests.empty()) {
          first.Add(result.metrics);
        }
      }
    }
    digests.push_back(Hex(fnv.h));
  } while (SecondsSince(loop_start) < o.seconds);
  if (!IsDatacenter(o)) {
    savings = first.Savings();
  }

  JsonOut out;
  out.Str("mode", "run");
  out.Str("workload", o.workload);
  out.Num("seed", static_cast<double>(o.seed));
  out.Num("setup_s", setup_s);
  out.Num("wall_s", wall_s);
  out.Num("cpu_s", cpu_s);
  out.Num("rack_days", rack_days);
  out.Num("rack_days_per_rep", first.rack_days);
  out.Str("rack_day_ms_kind", IsDatacenter(o) ? "cpu" : "serial");
  out.Nums("rack_day_ms", sample_ms);
  out.Strs("digests", digests);
  out.Num("energy_savings", savings);
  out.Num("delay_p99_s", first.DelayP99());
  out.Num("delay_samples", static_cast<double>(first.delay_s.count()));
  out.Num("jobs", o.jobs);
  out.Num("peak_rss_mb", PeakRssMiB());
  out.Print();
}

// ---------------------------------------------------------------------------
// traced: per-layer passes.

// Per-round timings; the report takes the median over rounds.
struct Round {
  double plain_s = 0.0;      // untraced pass (the overhead base)
  double gen_s = 0.0;        // split pass: TraceGenerator::GenerateTraceSet
  double ctor_s = 0.0;       //             ClusterManager constructor
  double manager_s = 0.0;    //             ClusterManager::Run
  double prof_s = 0.0;       // pass under OASIS_PROF=summary
  double check_s = 0.0;      // pass under a warn-mode InvariantChecker
  double shards_s = 0.0;     // datacenter: plain ShardRunner::Run
  double coordinate_s[kNumModes] = {};
  double ledger_s = 0.0;
  prof::Report prof;
  double prof_run_s = 0.0;   // profiled time inside ClusterSimulation::Run
};

// The split pass reproduces ClusterSimulation::Run (src/core/oasis.cc) step
// by step so each step can be timed; its digest must match the plain pass.
ClusterMetrics SplitRackDay(const SimulationConfig& config, Round* round) {
  Clock::time_point start = Clock::now();
  TraceGenerator generator(config.trace, config.seed ^ 0x7ACEBA5Eull);
  TraceSet trace = generator.GenerateTraceSet(config.cluster.TotalVms(), config.day);
  round->gen_s += SecondsSince(start);
  ClusterConfig cluster = config.cluster;
  cluster.seed = config.seed;
  start = Clock::now();
  ClusterManager manager(cluster, std::move(trace));
  round->ctor_s += SecondsSince(start);
  start = Clock::now();
  ClusterMetrics metrics = manager.Run();
  round->manager_s += SecondsSince(start);
  return metrics;
}

// One pass over a repetition through the public entry points:
// ClusterSimulation::Run per rack-day, or a whole datacenter day
// (RunDatacenterDay). With `checker` installed, a rack-day that records a
// violation fails; in the datacenter the checker cannot tell shards apart, so
// a violation fails the whole pass.
struct Pass {
  uint64_t digest = 0;
  double wall_s = 0.0;
  double run_s = 0.0;  // time inside ClusterSimulation::Run (rack workloads)
  int failed = 0;
  DcDay day;  // datacenter only
};

Pass RunPass(const Options& o, const Inputs& in, const check::InvariantChecker* checker,
             DayTotals* totals) {
  Pass pass;
  Fnv fnv;
  auto violations = [checker]() { return checker ? checker->violation_count() : 0; };
  const Clock::time_point start = Clock::now();
  if (IsDatacenter(o)) {
    const uint64_t before = violations();
    pass.day = RunDatacenterDay(in.topology, o.jobs);
    pass.wall_s = SecondsSince(start);
    if (violations() > before) {
      pass.failed = static_cast<int>(pass.day.run.racks.size());
    }
    fnv.U64(pass.day.digest);
    for (const dc::RackResult& rack : pass.day.run.racks) {
      if (totals != nullptr) {
        totals->Add(rack.metrics);
      }
    }
  } else {
    for (const SimulationConfig& config : in.grid) {
      const uint64_t before = violations();
      const Clock::time_point run_start = Clock::now();
      const SimulationResult result = ClusterSimulation(config).Run();
      pass.run_s += SecondsSince(run_start);
      if (violations() > before) {
        pass.failed += 1;
      }
      FoldMetrics(fnv, result.metrics);
      if (totals != nullptr) {
        totals->Add(result.metrics);
      }
    }
    pass.wall_s = SecondsSince(start);
  }
  pass.digest = fnv.h;
  return pass;
}

double PhaseTotal(const prof::Report& report, prof::Phase phase) {
  for (const prof::PhaseStats& stats : report.phases) {
    if (std::strcmp(stats.name, prof::PhaseName(phase)) == 0) {
      return stats.total_s;
    }
  }
  return 0.0;
}

void Traced(const Options& o, const Inputs& in, double setup_s) {
  const bool datacenter = IsDatacenter(o);
  const int pass_rack_days = static_cast<int>(
      datacenter ? in.topology.racks().size() : in.grid.size());
  // The split pass runs serially; in the datacenter it covers the first
  // four racks only.
  std::vector<SimulationConfig> split = in.grid;
  if (datacenter) {
    for (size_t i = 0; i < std::min<size_t>(4, in.topology.racks().size()); ++i) {
      split.push_back(in.topology.racks()[i].sim);
    }
  }
  const int split_rack_days = static_cast<int>(split.size());

  std::vector<Round> rounds;
  std::vector<std::string> plain_digests, split_digests, prof_digests, check_digests;
  DayTotals totals;  // counts of the first plain pass
  DcDay first_day;   // datacenter: the first plain pass
  int failed_rack_days = 0;
  check::InvariantChecker checker(check::CheckMode::kWarn);
  prof::Profiler& profiler = prof::Profiler::Instance();

  const Clock::time_point loop_start = Clock::now();
  do {
    Round round;
    DayTotals* first_totals = rounds.empty() ? &totals : nullptr;
    Pass plain = RunPass(o, in, nullptr, first_totals);
    round.plain_s = plain.wall_s;
    plain_digests.push_back(Hex(plain.digest));
    if (datacenter) {
      round.shards_s = plain.day.shards_s;
      std::copy(std::begin(plain.day.coordinate_s), std::end(plain.day.coordinate_s),
                round.coordinate_s);
      round.ledger_s = plain.day.ledger_s;
      if (first_totals != nullptr) {
        first_day = std::move(plain.day);
      }
    }

    Fnv split_fnv;
    Fnv shard_fnv;  // datacenter: the same racks as the plain shards ran them
    for (size_t i = 0; i < split.size(); ++i) {
      FoldMetrics(split_fnv, SplitRackDay(split[i], &round));
      if (datacenter) {
        FoldMetrics(shard_fnv, first_day.run.racks[i].metrics);
      }
    }
    split_digests.push_back(Hex(split_fnv.h));
    // Rack workloads compare the split digest with the plain one in run.py.
    if (datacenter && split_fnv.h != shard_fnv.h) {
      failed_rack_days += split_rack_days;
    }

    profiler.Reset();
    profiler.SetMode(prof::ProfMode::kSummary);
    const Pass profiled = RunPass(o, in, nullptr, nullptr);
    profiler.SetMode(prof::ProfMode::kOff);
    round.prof = profiler.Collect(/*reset=*/true);
    round.prof_s = profiled.wall_s;
    round.prof_run_s =
        datacenter ? PhaseTotal(round.prof, prof::Phase::kRunSim) : profiled.run_s;
    prof_digests.push_back(Hex(profiled.digest));

    check::InvariantChecker::Install(&checker);
    const Pass checked = RunPass(o, in, &checker, nullptr);
    check::InvariantChecker::Install(nullptr);
    round.check_s = checked.wall_s;
    failed_rack_days += checked.failed;
    check_digests.push_back(Hex(checked.digest));

    rounds.push_back(std::move(round));
  } while (SecondsSince(loop_start) < o.seconds);

  auto med = [&rounds](double Round::*field) {
    std::vector<double> values;
    for (const Round& r : rounds) {
      values.push_back(r.*field);
    }
    return Median(values);
  };
  auto med_coordinate = [&rounds](int mode) {
    std::vector<double> values;
    for (const Round& r : rounds) {
      values.push_back(r.coordinate_s[mode]);
    }
    return Median(values);
  };
  // Profiler figures come from the round whose profiled pass is the median.
  std::vector<const Round*> by_prof;
  for (const Round& r : rounds) {
    by_prof.push_back(&r);
  }
  std::sort(by_prof.begin(), by_prof.end(),
            [](const Round* a, const Round* b) { return a->prof_s < b->prof_s; });
  const Round& mid = *by_prof[by_prof.size() / 2];
  auto phase_total = [&mid](prof::Phase phase) { return PhaseTotal(mid.prof, phase); };
  double busy_s = 0.0;
  double idle_s = 0.0;
  for (const prof::WorkerRow& worker : mid.prof.workers) {
    busy_s += worker.busy_s;
    idle_s += worker.idle_s;
  }

  const double plain_s = med(&Round::plain_s);
  const double prof_s = med(&Round::prof_s);
  const double check_s = med(&Round::check_s);
  const double days = static_cast<double>(pass_rack_days);
  const double split_days = static_cast<double>(split_rack_days);
  const double num_rounds = static_cast<double>(rounds.size());

  JsonOut out;
  out.Str("mode", "traced");
  out.Str("workload", o.workload);
  out.Num("seed", static_cast<double>(o.seed));
  out.Num("setup_s", setup_s);
  out.Num("rounds", num_rounds);
  out.Num("attempted", static_cast<double>(rounds.size()) *
                           (3 * pass_rack_days + split_rack_days));
  out.Num("failed", failed_rack_days);
  out.Strs("plain_digests", plain_digests);
  out.Strs("split_digests", split_digests);
  out.Strs("prof_digests", prof_digests);
  out.Strs("check_digests", check_digests);

  JsonOut metrics;
  auto metric = [&metrics](const char* name, double value) { metrics.Num(name, value); };
  // trace / cluster (split pass, per rack-day)
  metric("trace.gen_ms_per_rack_day", 1e3 * med(&Round::gen_s) / split_days);
  metric("cluster.setup_ms_per_rack_day", 1e3 * med(&Round::ctor_s) / split_days);
  metric("cluster.run_ms_per_rack_day", 1e3 * med(&Round::manager_s) / split_days);
  metric("cluster.split_rack_days", split_days);
  // cluster / actuator counts (plain pass, per rack-day)
  metric("cluster.activations", totals.PerDay(totals.delay_s.count()));
  metric("cluster.partial_vm_intervals", totals.PerDay(totals.partial_vm_intervals));
  metric("cluster.full_at_cons_vm_intervals", totals.PerDay(totals.full_at_cons_vm_intervals));
  metric("actuator.full_migrations", totals.PerDay(totals.full_migrations));
  metric("actuator.partial_migrations", totals.PerDay(totals.partial_migrations));
  metric("actuator.reintegrations", totals.PerDay(totals.reintegrations));
  metric("actuator.host_wakes", totals.PerDay(totals.host_wakes));
  metric("actuator.host_sleeps", totals.PerDay(totals.host_sleeps));
  metric("actuator.capacity_exhaustions", totals.PerDay(totals.capacity_exhaustions));
  metric("actuator.full_to_partial_swaps", totals.PerDay(totals.full_to_partial_swaps));
  metric("actuator.reintegrations_per_partial",
         totals.partial_migrations > 0 ? static_cast<double>(totals.reintegrations) /
                                             static_cast<double>(totals.partial_migrations)
                                       : 0.0);
  // sim
  metric("sim.events_per_rack_day", totals.PerDay(totals.events));
  metric("sim.events_per_s", static_cast<double>(totals.events) /
                                 (datacenter ? med(&Round::shards_s) : plain_s));
  const double prof_run_s = mid.prof_run_s;
  metric("sim.heap_pop_s", phase_total(prof::Phase::kSimHeapPop));
  metric("sim.dispatch_s", phase_total(prof::Phase::kSimDispatch));
  metric("sim.profiled_run_s", prof_run_s);
  metric("sim.heap_pop_share",
         prof_run_s > 0.0 ? phase_total(prof::Phase::kSimHeapPop) / prof_run_s : 0.0);
  metric("sim.dispatch_share",
         prof_run_s > 0.0 ? phase_total(prof::Phase::kSimDispatch) / prof_run_s : 0.0);
  // exp / pool (the datacenter's ShardRunner; zero where no runner ran)
  metric("exp.parallel_efficiency", mid.prof.parallel_efficiency);
  metric("exp.worker_busy_s", busy_s);
  metric("exp.jobs_x_wall_s", mid.prof.jobs * mid.prof.wall_s);
  metric("exp.merge_s", phase_total(prof::Phase::kRunMerge));
  metric("exp.setup_s", phase_total(prof::Phase::kRunSetup));
  metric("exp.worker_idle_share", mid.prof.worker_idle_share);
  metric("exp.worker_idle_s", idle_s);
  metric("pool.steals", static_cast<double>(mid.prof.counts[static_cast<int>(prof::Count::kPoolSteals)]));
  metric("pool.wakes", static_cast<double>(mid.prof.counts[static_cast<int>(prof::Count::kPoolWakes)]));
  // dc (zero on rack workloads: the tier is not called)
  metric("dc.shards_s", med(&Round::shards_s));
  metric("dc.coordinate_ms.off", 1e3 * med_coordinate(0));
  metric("dc.coordinate_ms.global-greedy", 1e3 * med_coordinate(1));
  metric("dc.coordinate_ms.assisted", 1e3 * med_coordinate(2));
  metric("dc.ledger_ms", 1e3 * med(&Round::ledger_s) / kNumModes);
  metric("dc.drains", static_cast<double>(first_day.assisted.drains_started));
  metric("dc.vms_drained", static_cast<double>(first_day.assisted.vms_drained));
  metric("dc.vms_per_drain",
         first_day.assisted.drains_started > 0
             ? static_cast<double>(first_day.assisted.vms_drained) /
                   static_cast<double>(first_day.assisted.drains_started)
             : 0.0);
  // fault (per rack-day)
  metric("fault.injected", totals.PerDay(totals.faults_injected));
  metric("fault.recovered", totals.PerDay(totals.faults_recovered));
  metric("fault.crash_vm_restarts", totals.PerDay(totals.crash_vm_restarts));
  // net (simulated wire volume)
  metric("net.traffic_gib_per_rack_day",
         totals.PerDay(totals.network_bytes) / static_cast<double>(kGiB));
  // passes and their overhead against the plain pass
  metric("pass.rack_days", days);
  metric("pass.plain_s", plain_s);
  metric("pass.prof_s", prof_s);
  metric("pass.check_s", check_s);
  metric("prof.overhead_share", plain_s > 0.0 ? prof_s / plain_s - 1.0 : 0.0);
  metric("check.overhead_share", plain_s > 0.0 ? check_s / plain_s - 1.0 : 0.0);
  metric("check.checks_per_rack_day",
         static_cast<double>(checker.checks_run()) / (num_rounds * days));
  metric("check.violations", static_cast<double>(checker.violation_count()));
  out.Raw("metrics", metrics.Text());
  out.Print();
}

}  // namespace
}  // namespace oasis

int main(int argc, char** argv) {
  using namespace oasis;
  const Options o = ParseOptions(argc, argv);
  // The datacenter's fault mix crashes hosts on purpose; keep its warnings
  // off stderr.
  SetLogLevel(LogLevel::kError);
  const Inputs inputs = SetUp(o);
  // Set-up is the CPU time of every thread of the process from its start
  // until now: unlike wall time, it leaves out what other processes on the
  // host take.
  const double setup_s = ProcessCpuSeconds();
  if (o.mode == "setup") {
    JsonOut out;
    out.Str("mode", "setup");
    out.Num("setup_s", setup_s);
    out.Print();
  } else if (o.mode == "run") {
    RunLoop(o, inputs, setup_s);
  } else {
    Traced(o, inputs, setup_s);
  }
  return 0;
}
