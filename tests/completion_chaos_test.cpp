// Migration completions under chaos, pinned by metric digest.
//
// A migration's completion retires at a fixed (time, schedule order) key,
// and the order in which it meets the events around it decides what a
// fault, an activation or a planning round sees of the VM. These days
// make that order matter: for several seeds and three strategies, a
// chaos day with host crashes, migration aborts and memory-server failures
// is run twice. The first run's trace names migration completion instants;
// the second run adds faults at exactly those instants (an abort of the
// completing VM and a crash of its destination), so each fault lands on
// the same microsecond as a completion it must still see in flight.
// Crashes scheduled one restart latency before a round make restarts
// complete on a round instant, and a crash of the source of a full VM
// streaming home while its user waits makes a restart supersede a
// waited-on move. Each second run's DigestMetrics is pinned, and the trace
// shows the ties the digests depend on:
//   - a completion on the same instant as a planning round;
//   - a completion on the same instant as a fault;
//   - a completion whose VM went active while it was in flight (during a
//     crash restart, which cannot roll back);
//   - a waited-on completion superseded by a crash restart, which the user
//     then waits on instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/check/check.h"
#include "src/core/oasis.h"
#include "src/fault/fault.h"
#include "src/obs/trace.h"
#include "src/trace/trace_generator.h"
#include "tests/metric_digest.h"

namespace oasis {
namespace {

ClusterConfig ChaosConfig(const std::string& strategy, uint64_t seed) {
  ClusterConfig config;
  config.num_home_hosts = 8;
  config.num_consolidation_hosts = 3;
  config.vms_per_home = 12;
  config.policy = ConsolidationPolicy::kFullToPartial;
  config.strategy_name = strategy;
  config.seed = seed;
  config.fault = FaultConfig::ChaosDay();
  config.fault.host_crash_per_hour = 0.5;
  config.fault.memory_server_failure_per_hour = 0.75;
  config.fault.migration_abort_per_hour = 2.0;
  // One crash per hour, one restart latency before the hour's first round:
  // a full VM whose home is powered restarts exactly on that round.
  for (int hour = 1; hour < 24; ++hour) {
    SimTime at = SimTime::Hours(static_cast<double>(hour)) - kVmRestartLatency;
    config.fault.scheduled.push_back(ScheduledFault{at, FaultClass::kHostCrash, -1});
  }
  return config;
}

TraceSet ChaosTrace(const ClusterConfig& config) {
  TraceGenerator generator(TraceGeneratorConfig{}, config.seed ^ 0x7ACEBA5Eull);
  return generator.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday);
}

bool IsMigrationSpan(const obs::TraceEvent& e) {
  return e.phase == obs::TracePhase::kComplete && std::string(e.category) == "migration" &&
         std::string(e.name) != "descriptor_push" && std::string(e.name) != "memory_upload";
}

// The run's trace events, with the ring sized so that none are dropped.
std::vector<obs::TraceEvent> TracedRun(const ClusterConfig& config, const TraceSet& trace,
                                       ClusterMetrics* metrics) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  ClusterManager manager(config, trace);
  *metrics = manager.Run();
  EXPECT_EQ(tracer.dropped(), 0u);
  std::vector<obs::TraceEvent> events = tracer.Events();
  tracer.Clear();
  return events;
}

// Adds, at the end instants of two partial migrations past hour 8 in
// `first` (the first run's trace), an abort of the completing VM and a
// crash of the second one's destination.
void AddTiedFaults(const std::vector<obs::TraceEvent>& first, ClusterConfig& config) {
  int added = 0;
  for (const obs::TraceEvent& e : first) {
    if (added == 2 || !IsMigrationSpan(e) || std::string(e.name) != "partial_migration" ||
        e.ts_us + e.dur_us < SimTime::Hours(8.0 + 4.0 * added).micros()) {
      continue;
    }
    SimTime end = SimTime::Micros(e.ts_us + e.dur_us);
    FaultClass fault = added == 0 ? FaultClass::kMigrationAbort : FaultClass::kHostCrash;
    int64_t target = added == 0 ? e.args.vm : e.args.host;
    config.fault.scheduled.push_back(ScheduledFault{end, fault, target});
    ++added;
  }
  ASSERT_EQ(added, 2);
}

// A full VM returning home whose user went active mid-stream (a round at
// or after the stream's start and before its end) waits for the stream to
// land; `first` pairs each such stream with the activation.
struct WaitedReturn {
  int64_t vm;
  int64_t activated_us;
  int64_t end_us;
  HostId source;
};

std::vector<WaitedReturn> WaitedReturns(const std::vector<obs::TraceEvent>& events,
                                        const ClusterConfig& config) {
  std::map<int64_t, std::vector<const obs::TraceEvent*>> spans_by_vm;
  std::map<int64_t, std::vector<int64_t>> activations_by_vm;
  for (const obs::TraceEvent& e : events) {
    if (IsMigrationSpan(e)) {
      spans_by_vm[e.args.vm].push_back(&e);
    } else if (std::string(e.name) == "vm_activation") {
      activations_by_vm[e.args.vm].push_back(e.ts_us);
    }
  }
  std::vector<WaitedReturn> waited;
  for (const auto& [vm, spans] : spans_by_vm) {
    const int64_t home = vm / config.vms_per_home;
    for (const obs::TraceEvent* f : spans) {
      if (std::string(f->name) != "full_migration" || f->args.host != home) {
        continue;
      }
      // The stream's source: where the VM's latest earlier move to a
      // consolidation host left it.
      const obs::TraceEvent* arrival = nullptr;
      for (const obs::TraceEvent* g : spans) {
        if (g->ts_us < f->ts_us && g->args.host >= config.num_home_hosts &&
            (arrival == nullptr || g->ts_us >= arrival->ts_us)) {
          arrival = g;
        }
      }
      if (arrival == nullptr) {
        continue;
      }
      const int64_t end = f->ts_us + f->dur_us;
      const HostId source = static_cast<HostId>(arrival->args.host);
      for (int64_t at : activations_by_vm[vm]) {
        if (f->ts_us <= at && at < end) {
          waited.push_back(WaitedReturn{vm, at, end, source});
        }
      }
    }
  }
  return waited;
}

// Crashes the source of the first waited-on return past hour 6 halfway
// between the activation and the stream's end: the VM restarts from its
// home's disk instead, and its user keeps waiting on the restart.
void AddCrashUnderWaitedReturn(const std::vector<obs::TraceEvent>& first, ClusterConfig& config) {
  for (const WaitedReturn& w : WaitedReturns(first, config)) {
    if (w.activated_us >= SimTime::Hours(6.0).micros()) {
      SimTime at = SimTime::Micros((w.activated_us + w.end_us) / 2);
      int64_t target = static_cast<int64_t>(w.source);
      config.fault.scheduled.push_back(ScheduledFault{at, FaultClass::kHostCrash, target});
      return;
    }
  }
}

// What a second run's trace shows of completion ties.
struct Ties {
  int at_round = 0;
  int at_fault = 0;
  int activation_pending = 0;
  int superseded_wait = 0;
};

Ties CountTies(const std::vector<obs::TraceEvent>& events, const ClusterConfig& config) {
  std::set<int64_t> rounds;
  std::set<int64_t> faults;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "planning_round") {
      rounds.insert(e.ts_us);
    } else if (std::string(e.category) == "fault" && e.phase == obs::TracePhase::kInstant) {
      faults.insert(e.ts_us);
    }
  }
  Ties ties;
  for (const obs::TraceEvent& e : events) {
    if (!IsMigrationSpan(e)) {
      continue;
    }
    int64_t end = e.ts_us + e.dur_us;
    ties.at_round += rounds.count(end) > 0 ? 1 : 0;
    ties.at_fault += faults.count(end) > 0 ? 1 : 0;
  }
  // A crash restart cannot roll back, so a VM that goes active during one
  // (after the crash, up to and including the restart's own instant: a
  // round sharing it runs first) waits for the restart to land.
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> restarts_by_vm;
  for (const obs::TraceEvent& e : events) {
    if (IsMigrationSpan(e) && std::string(e.name) == "crash_restart") {
      restarts_by_vm[e.args.vm].emplace_back(e.ts_us, e.ts_us + e.dur_us);
    }
  }
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) != "vm_activation") {
      continue;
    }
    for (const auto& [start, end] : restarts_by_vm[e.args.vm]) {
      ties.activation_pending += start < e.ts_us && e.ts_us <= end ? 1 : 0;
    }
  }
  // A waited-on return whose VM restarted before the stream could land.
  for (const WaitedReturn& w : WaitedReturns(events, config)) {
    for (const auto& [start, end] : restarts_by_vm[w.vm]) {
      ties.superseded_wait += w.activated_us < start && start < w.end_us ? 1 : 0;
    }
  }
  return ties;
}

class CompletionChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Global().SetCapacity(1 << 20);
    obs::Tracer::Global().set_enabled(true);
    check::InvariantChecker::Install(&checker_);
  }
  void TearDown() override {
    check::InvariantChecker::Install(nullptr);
    obs::Tracer::Global().set_enabled(false);
    obs::Tracer::Global().Clear();
    EXPECT_EQ(checker_.violation_count(), 0u) << "see stderr for the structured report";
  }

  check::InvariantChecker checker_{check::CheckMode::kWarn};
};

// Runs one tied day for `strategy` and `seed`, expects its digest to be
// `pinned`, and adds what its trace shows to `total`.
void RunTiedDay(const std::string& strategy, uint64_t seed, uint64_t pinned, Ties& total) {
  SCOPED_TRACE(strategy + " seed " + std::to_string(seed));
  ClusterConfig config = ChaosConfig(strategy, seed);
  TraceSet trace = ChaosTrace(config);
  ClusterMetrics first_metrics;
  std::vector<obs::TraceEvent> first = TracedRun(config, trace, &first_metrics);
  AddTiedFaults(first, config);
  AddCrashUnderWaitedReturn(first, config);
  ClusterMetrics metrics;
  std::vector<obs::TraceEvent> events = TracedRun(config, trace, &metrics);
  auto injected = [&metrics](FaultClass fault) {
    return metrics.fault_injected_by_class[static_cast<int>(fault)];
  };
  EXPECT_GT(injected(FaultClass::kHostCrash), 0u);
  EXPECT_GT(injected(FaultClass::kMigrationAbort), 0u);
  EXPECT_GT(injected(FaultClass::kMemoryServerFailure), 0u);
  const uint64_t digest = testing::DigestMetrics(metrics);
  EXPECT_EQ(digest, pinned) << "digest 0x" << std::hex << digest;
  Ties ties = CountTies(events, config);
  total.at_round += ties.at_round;
  total.at_fault += ties.at_fault;
  total.activation_pending += ties.activation_pending;
  total.superseded_wait += ties.superseded_wait;
}

TEST_F(CompletionChaosTest, TiedDaysMatchPinnedDigests) {
  // Pinned when each migration completion was still its own event.
  Ties total;
  RunTiedDay("oasis-greedy", 1, 0x67d5323becbfd3e1ull, total);
  RunTiedDay("oasis-greedy", 2, 0x7f6663a33049934dull, total);
  RunTiedDay("oasis-greedy", 3, 0xa527aedf0794ed71ull, total);
  RunTiedDay("local-threshold", 1, 0x164c6cc9ee981ed4ull, total);
  RunTiedDay("local-threshold", 2, 0x1f49b51b3d3b2d97ull, total);
  RunTiedDay("local-threshold", 3, 0x0ee1ff44b7e018b7ull, total);
  RunTiedDay("first-fit-decreasing", 1, 0xe7b51204eeeeb1b5ull, total);
  RunTiedDay("first-fit-decreasing", 2, 0x65937188f570430eull, total);
  RunTiedDay("first-fit-decreasing", 3, 0x8bf65aa11385da37ull, total);
  EXPECT_GT(total.at_round, 0);
  EXPECT_GT(total.at_fault, 0);
  EXPECT_GT(total.activation_pending, 0);
  EXPECT_GT(total.superseded_wait, 0);
}

}  // namespace
}  // namespace oasis
