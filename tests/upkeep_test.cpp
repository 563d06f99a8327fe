// Lazy partial-VM upkeep against the eager per-round walk it replaced.
//
//   - UpkeepRates: the closed-form cap phase, the memoized tail and the
//     jump rows of the on-demand fetch equal round-by-round iteration
//     around the cap threshold, over every memoized size, every page-aligned
//     size below the threshold and at random sizes, including random VMs
//     in every phase; dirty and working-set growth equal their per-round
//     sums.
//   - Differential days: two managers on the same config and trace, stepped
//     round by round. One runs the actuator's lazy PartialVmUpkeep, the
//     other the eager walk kept below as the reference. Between them the
//     scenarios cover exhaustion rounds, drains, in-place conversions,
//     NewHome moves, and crash, memory-server and migration-abort faults.
//     After every round each VM's settled counters, every host's reservation
//     and the traffic totals and counts must be identical, with the
//     invariant checker on in both worlds.
//   - Trusted idle: stepped days at several planning intervals and
//     smoothing windows, against the last-idle-edge rule kept below as the
//     reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/check/check.h"
#include "src/cluster/manager.h"
#include "src/common/rng.h"
#include "src/fault/fault.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/trace/trace_generator.h"

namespace oasis {

// Reaches into the manager and its actuator to run a day one round at a
// time with either upkeep.
struct UpkeepTestPeer {
  // Steps `m` to `until` through the manager's own events, as
  // ClusterManager::RunUntil does. With `eager_exhaustions` set, each
  // planning round runs the eager reference walk in place of the actuator's
  // PartialVmUpkeep and counts its exhaustion rounds there; every other
  // event, and every other step of the round, is the manager's.
  static void RunUntil(ClusterManager& m, SimTime until, int* eager_exhaustions);
  static ClusterMetrics& Metrics(ClusterManager& m) { return m.metrics_; }
  static int RoundsPerDay(const ClusterManager& m) { return m.RoundsPerDay(); }
  // The completion batch ClusterManager::Run runs after the day's events.
  static void RetireCompletions(ClusterManager& m) { m.act_.RetireCompletions(); }
  static void SettleAll(ClusterManager& m) { m.act_.SettleAllUpkeep(); }
  // Overrides the working-set growth per round, before `m` runs a round.
  static void SetGrowth(ClusterManager& m, uint64_t growth) { m.state_.upkeep.growth = growth; }
  // Actuator::PartialVmUpkeep as it stood before upkeep went lazy: every
  // round visits every eligible VM. Returns whether the round exhausted a
  // host.
  static bool EagerUpkeep(ClusterManager& m, SimTime now);
};

namespace {

using check::CheckMode;
using check::InvariantChecker;

// Whole pages of working-set growth per round at `mib_per_hour`.
uint64_t GrowthPerInterval(SimTime planning_interval, double mib_per_hour) {
  uint64_t bytes = MiBToBytes(mib_per_hour * planning_interval.hours());
  return (bytes / kPageSize) * kPageSize;
}

}  // namespace

bool UpkeepTestPeer::EagerUpkeep(ClusterManager& m, SimTime now) {
  ClusterState& state = m.state_;
  const ClusterConfig& config = m.config_;
  // The scenario's growth, which it may have set through SetGrowth.
  uint64_t growth = state.upkeep.growth;
  uint64_t dirty_step = MiBToBytes(kDirtyMiBPerMinute * config.planning_interval.minutes());
  uint64_t fetched_bytes = 0;
  uint64_t fetches = 0;
  std::vector<HostId> exhausted_homes;
  for (size_t h = 0; h < state.hosts.size(); ++h) {
    if (state.partial_residents[h] == 0) {
      continue;
    }
    ClusterHost& host = state.hosts[h];
    uint64_t fits = growth > 0 ? host.AvailableBytes() / growth : 0;
    uint64_t grown = 0;
    for (VmId id : host.vms()) {
      VmSlot& vm = state.vms[id];
      if (vm.residency != VmResidency::kPartial || vm.migration_in_flight) {
        continue;
      }
      // This world never lags: every eligible VM took every round.
      EXPECT_EQ(vm.upkeep_mark, state.upkeep_round) << "eager world VM " << id;
      uint64_t fetch = static_cast<uint64_t>(static_cast<double>(vm.ws_unfetched) *
                                             kOnDemandFractionPerRound);
      fetch = std::min(fetch, kOnDemandCapPerRound);
      if (fetch > 0) {
        fetched_bytes += fetch;
        ++fetches;
        vm.ws_unfetched -= fetch;
      }
      vm.dirty_bytes = std::min(vm.dirty_bytes + dirty_step, kDirtyCapBytes);
      if (growth > 0) {
        if (grown < fits) {
          ++grown;
          vm.ws_bytes += growth;
        } else {
          exhausted_homes.push_back(vm.home);
        }
      }
      vm.upkeep_mark = state.upkeep_round + 1;
    }
    if (grown > 0) {
      host.Reserve(grown * growth);
    }
  }
  ++state.upkeep_round;
  if (fetches > 0) {
    m.metrics_.traffic.Add(TrafficCategory::kOnDemandPages, fetched_bytes, fetches);
  }
  std::sort(exhausted_homes.begin(), exhausted_homes.end());
  exhausted_homes.erase(std::unique(exhausted_homes.begin(), exhausted_homes.end()),
                        exhausted_homes.end());
  for (HostId home : exhausted_homes) {
    ++m.metrics_.capacity_exhaustions;
    m.act_.ReturnHomeGroup(now, home, kNoVm, now);
  }
  return !exhausted_homes.empty();
}

void UpkeepTestPeer::RunUntil(ClusterManager& m, SimTime until, int* eager_exhaustions) {
  if (eager_exhaustions == nullptr) {
    m.RunUntil(until);
    return;
  }
  m.SetCollectors();
  m.sim_.RunUntil(until, [&m, eager_exhaustions](const Event& ev) {
    if (static_cast<ClusterEvent>(ev.kind) != ClusterEvent::kRound) {
      m.Dispatch(ev);
      return;
    }
    // ClusterManager::OnInterval with the eager walk as its upkeep step.
    const SimTime now = m.sim_.now();
    m.act_.RetireCompletions();
    m.UpdateActivities(now, static_cast<int>(ev.a));
    *eager_exhaustions += EagerUpkeep(m, now) ? 1 : 0;
    m.PlanAndRecord(now);
  });
}

namespace {

using Peer = UpkeepTestPeer;

constexpr int kCategories = static_cast<int>(TrafficCategory::kCategoryCount);

// What a scenario exercised, summed over its rounds.
struct Coverage {
  int exhaustion_rounds = 0;
  int drains = 0;
  int conversions = 0;
  uint64_t new_home_moves = 0;
  uint64_t crashes = 0;
  uint64_t memory_server_failures = 0;
  uint64_t migration_aborts = 0;
};

// Expects the lazy world, settled in thought, to equal the eager world;
// reports only the first difference. The fetches the lazy world owes but
// has not booked count toward its traffic.
bool ExpectSameUpkeepState(ClusterManager& lazy, ClusterManager& eager, const std::string& where) {
  if (lazy.upkeep_round() != eager.upkeep_round()) {
    ADD_FAILURE() << where << ": upkeep rounds " << lazy.upkeep_round() << " vs "
                  << eager.upkeep_round();
    return false;
  }
  uint64_t pending_bytes = 0;
  uint64_t pending_fetches = 0;
  for (size_t v = 0; v < lazy.num_vms(); ++v) {
    VmId id = static_cast<VmId>(v);
    const VmSlot& l = lazy.GetVm(id);
    const VmSlot& e = eager.GetVm(id);
    UpkeepCounters s = lazy.SettledUpkeep(id);
    pending_bytes += s.fetched_bytes;
    pending_fetches += s.fetches;
    if (l.residency != e.residency || l.location != e.location ||
        l.migration_in_flight != e.migration_in_flight || s.ws_bytes != e.ws_bytes ||
        s.ws_unfetched != e.ws_unfetched || s.dirty_bytes != e.dirty_bytes) {
      ADD_FAILURE() << where << ": VM " << id << " settled ws/unfetched/dirty " << s.ws_bytes
                    << "/" << s.ws_unfetched << "/" << s.dirty_bytes << " at host "
                    << l.location << ", eager " << e.ws_bytes << "/" << e.ws_unfetched << "/"
                    << e.dirty_bytes << " at host " << e.location;
      return false;
    }
  }
  for (size_t h = 0; h < lazy.num_hosts(); ++h) {
    HostId id = static_cast<HostId>(h);
    if (lazy.GetHost(id).reserved_bytes() != eager.GetHost(id).reserved_bytes()) {
      ADD_FAILURE() << where << ": host " << h << " reserves "
                    << lazy.GetHost(id).reserved_bytes() << " B, eager "
                    << eager.GetHost(id).reserved_bytes() << " B";
      return false;
    }
  }
  const TrafficAccounting& lt = Peer::Metrics(lazy).traffic;
  const TrafficAccounting& et = Peer::Metrics(eager).traffic;
  for (int c = 0; c < kCategories; ++c) {
    TrafficCategory cat = static_cast<TrafficCategory>(c);
    bool on_demand = cat == TrafficCategory::kOnDemandPages;
    uint64_t bytes = lt.Total(cat) + (on_demand ? pending_bytes : 0);
    uint64_t count = lt.Count(cat) + (on_demand ? pending_fetches : 0);
    if (bytes != et.Total(cat) || count != et.Count(cat)) {
      ADD_FAILURE() << where << ": " << TrafficCategoryName(cat) << " traffic " << bytes
                    << " B in " << count << ", eager " << et.Total(cat) << " B in "
                    << et.Count(cat);
      return false;
    }
  }
  return true;
}

void Tally(ClusterManager& m, Coverage& cov) {
  for (size_t v = 0; v < m.num_vms(); ++v) {
    const VmSlot& vm = m.GetVm(static_cast<VmId>(v));
    if (!vm.migration_in_flight) {
      continue;
    }
    cov.drains += vm.pending_op == VmSlot::PendingOp::kDrainMove ? 1 : 0;
    cov.conversions += vm.residency == VmResidency::kFullAtConsolidation &&
                               vm.pending_op == VmSlot::PendingOp::kOther &&
                               vm.migration_source == vm.location
                           ? 1
                           : 0;
  }
}

// Homes packed to the brim and consolidation hosts that fill within hours
// (TightCluster) exhaust hosts all day when working sets grow 40x faster
// than §4.4.3's creep.
constexpr double kTightGrowthMiBPerHour = 40 * kWsGrowthMiBPerHour;

// Runs `config` on `trace` in both worlds round by round, with working sets
// growing `growth_mib_per_hour`, then settles the lazy one and checks the
// finished days against each other and against a plain ClusterManager::Run.
Coverage ExpectLazyMatchesEager(const ClusterConfig& config, const TraceSet& trace,
                                double growth_mib_per_hour = kTightGrowthMiBPerHour) {
  const uint64_t growth = GrowthPerInterval(config.planning_interval, growth_mib_per_hour);
  InvariantChecker checker(CheckMode::kWarn);
  InvariantChecker::Install(&checker);
  ClusterManager lazy(config, trace);
  ClusterManager eager(config, trace);
  Peer::SetGrowth(lazy, growth);
  Peer::SetGrowth(eager, growth);
  Coverage cov;
  bool same = true;
  for (int t = 0; same && t < Peer::RoundsPerDay(lazy); ++t) {
    SimTime when = config.planning_interval * t;
    Peer::RunUntil(lazy, when, nullptr);
    Peer::RunUntil(eager, when, &cov.exhaustion_rounds);
    same = ExpectSameUpkeepState(lazy, eager, "round " + std::to_string(t));
    Tally(lazy, cov);
  }
  SimTime end = SimTime::Hours(24.0);
  Peer::RunUntil(lazy, end, nullptr);
  Peer::RunUntil(eager, end, &cov.exhaustion_rounds);
  Peer::RetireCompletions(lazy);
  Peer::RetireCompletions(eager);
  Peer::SettleAll(lazy);
  InvariantChecker::Install(nullptr);
  EXPECT_EQ(checker.violation_count(), 0u);
  for (const check::Violation& v : checker.violations()) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
  if (same) {
    ExpectSameUpkeepState(lazy, eager, "end of day");
    for (size_t v = 0; v < lazy.num_vms(); ++v) {
      const VmSlot& vm = lazy.GetVm(static_cast<VmId>(v));
      EXPECT_EQ(UpkeepRates::PendingRounds(vm, lazy.upkeep_round()), 0u)
          << "VM " << v << " left unsettled";
    }
  }
  const ClusterMetrics& lm = Peer::Metrics(lazy);
  cov.new_home_moves = lm.new_home_moves;
  const FaultInjector& injector = lazy.fault_injector();
  cov.crashes = injector.injected(FaultClass::kHostCrash);
  cov.memory_server_failures = injector.injected(FaultClass::kMemoryServerFailure);
  cov.migration_aborts = injector.injected(FaultClass::kMigrationAbort);

  // The stepped lazy world, settled, is the production day: the same
  // traffic, counters and delays as ClusterManager::Run.
  ClusterManager plain(config, trace);
  Peer::SetGrowth(plain, growth);
  ClusterMetrics pm = plain.Run();
  for (int c = 0; c < kCategories; ++c) {
    TrafficCategory cat = static_cast<TrafficCategory>(c);
    EXPECT_EQ(pm.traffic.Total(cat), lm.traffic.Total(cat)) << TrafficCategoryName(cat);
    EXPECT_EQ(pm.traffic.Count(cat), lm.traffic.Count(cat)) << TrafficCategoryName(cat);
  }
  EXPECT_EQ(pm.capacity_exhaustions, lm.capacity_exhaustions);
  EXPECT_EQ(pm.reintegrations, lm.reintegrations);
  EXPECT_EQ(pm.partial_migrations, lm.partial_migrations);
  EXPECT_EQ(pm.full_migrations, lm.full_migrations);
  EXPECT_EQ(pm.timeline.size(), lm.timeline.size());
  EXPECT_EQ(pm.transition_delay_s.sorted_samples(), lm.transition_delay_s.sorted_samples());
  return cov;
}

TraceSet TraceFor(const ClusterConfig& config, DayKind day) {
  TraceGenerator generator(TraceGeneratorConfig{}, config.seed ^ 0x7ACEBA5Eull);
  return generator.GenerateTraceSet(config.TotalVms(), day);
}

// Homes packed to the brim and consolidation hosts that fill within hours.
ClusterConfig TightCluster(ConsolidationPolicy policy, uint64_t seed) {
  ClusterConfig config;
  config.num_home_hosts = 8;
  config.num_consolidation_hosts = 3;
  config.vms_per_home = 10;
  config.host_memory_bytes = 40 * kGiB;
  config.policy = policy;
  config.seed = seed;
  return config;
}

TEST(UpkeepRatesTest, FetchShortcutsMatchIteration) {
  UpkeepRates rates(ClusterConfig{}.planning_interval);
  const uint64_t cap = kOnDemandCapPerRound;
  const uint64_t threshold = UpkeepRates::kCapThreshold;
  // The threshold is the first size whose fetch is the cap.
  EXPECT_EQ(rates.Fetch(threshold), cap);
  EXPECT_LT(rates.Fetch(threshold - 1), cap);

  auto iterate = [&rates](uint64_t unfetched, uint64_t rounds) {
    UpkeepCounters c;
    c.ws_unfetched = unfetched;
    for (uint64_t r = 0; r < rounds; ++r) {
      uint64_t fetch = rates.Fetch(c.ws_unfetched);
      if (fetch > 0) {
        c.ws_unfetched -= fetch;
        c.fetched_bytes += fetch;
        ++c.fetches;
      }
    }
    return c;
  };
  auto expect_same = [&](uint64_t unfetched, uint64_t rounds) {
    VmSlot vm;
    vm.ws_unfetched = unfetched;
    UpkeepCounters want = iterate(unfetched, rounds);
    UpkeepCounters got = rates.Advance(vm, rounds, 0);
    EXPECT_EQ(want.ws_unfetched, got.ws_unfetched) << unfetched << " over " << rounds;
    EXPECT_EQ(want.fetched_bytes, got.fetched_bytes) << unfetched << " over " << rounds;
    EXPECT_EQ(want.fetches, got.fetches) << unfetched << " over " << rounds;
  };
  std::vector<uint64_t> sizes;
  for (int64_t pages = -2; pages <= 2; ++pages) {
    sizes.push_back(threshold + static_cast<uint64_t>(pages * kPageSize));
    sizes.push_back(threshold + static_cast<uint64_t>(pages));
    sizes.push_back(threshold + cap + static_cast<uint64_t>(pages * kPageSize));
  }
  Rng rng(20160419);
  for (int i = 0; i < 200; ++i) {
    sizes.push_back(rng.NextBelow(4 * kGiB));
  }
  for (uint64_t unfetched : sizes) {
    for (uint64_t rounds : {0u, 1u, 2u, 3u, 7u, 50u, 288u, 2000u}) {
      expect_same(unfetched, rounds);
    }
  }
  // Every size the memoized tail covers, and a little past it, with fewer
  // and more rounds than its walk takes.
  ASSERT_EQ(UpkeepRates::Tables().tail.size(), UpkeepRates::kTailSizes);
  for (uint64_t unfetched = 0; unfetched < UpkeepRates::kTailSizes + 64; ++unfetched) {
    for (uint64_t rounds : {1u, 4u, 11u, 19u, 288u}) {
      expect_same(unfetched, rounds);
    }
  }

  // Random VMs against the rounds applied one at a time with the unsigned
  // conversions: sizes in the cap phase, in the band and in the memoized
  // tail, 0-60 rounds and a random number of them grown, in 1600 groups of
  // 1-14 VMs.
  auto one_by_one = [&rates](const VmSlot& vm, uint64_t rounds, uint64_t grown) {
    UpkeepCounters c{vm.ws_bytes + grown * rates.growth, vm.ws_unfetched, vm.dirty_bytes, 0, 0};
    for (uint64_t k = 0; k < rounds; ++k) {
      const double product = static_cast<double>(c.ws_unfetched) * kOnDemandFractionPerRound;
      uint64_t fetch = std::min(static_cast<uint64_t>(product), kOnDemandCapPerRound);
      if (fetch > 0) {
        c.ws_unfetched -= fetch;
        c.fetched_bytes += fetch;
        ++c.fetches;
      }
      c.dirty_bytes = std::min(c.dirty_bytes + rates.dirty_step, kDirtyCapBytes);
    }
    return c;
  };
  const uint64_t band_floor = UpkeepRates::kTailSizes;
  for (int group = 0; group < 1600; ++group) {
    const uint64_t n = 1 + rng.NextBelow(14);
    for (uint64_t i = 0; i < n; ++i) {
      VmSlot vm;
      switch (rng.NextBelow(3)) {
        case 0:  // cap phase
          vm.ws_unfetched = threshold + rng.NextBelow(200 * kMiB);
          break;
        case 1:  // band
          vm.ws_unfetched = band_floor + rng.NextBelow(threshold - band_floor);
          break;
        default:  // memoized tail
          vm.ws_unfetched = rng.NextBelow(UpkeepRates::kTailSizes);
          break;
      }
      vm.ws_bytes = vm.ws_unfetched + rng.NextBelow(64 * kMiB);
      vm.dirty_bytes = rng.NextBelow(kDirtyCapBytes);
      const uint64_t rounds = rng.NextBelow(61);
      const uint64_t grown = rng.NextBelow(rounds + 1);
      const UpkeepCounters want = one_by_one(vm, rounds, grown);
      const UpkeepCounters got = rates.Advance(vm, rounds, grown);
      const std::string what =
          std::to_string(vm.ws_unfetched) + " B over " + std::to_string(rounds) + " rounds";
      EXPECT_EQ(want.ws_bytes, got.ws_bytes) << what;
      EXPECT_EQ(want.ws_unfetched, got.ws_unfetched) << what;
      EXPECT_EQ(want.dirty_bytes, got.dirty_bytes) << what;
      EXPECT_EQ(want.fetched_bytes, got.fetched_bytes) << what;
      EXPECT_EQ(want.fetches, got.fetches) << what;
    }
  }
}

TEST(UpkeepRatesTest, JumpRowsMatchTheRoundByRoundWalk) {
  // The walk round by round from `start`: where it stands after each round
  // until its fetch rounds down to nothing.
  auto positions = [](uint64_t start) {
    std::vector<uint64_t> at{start};
    while (UpkeepRates::Fetch(at.back()) != 0) {
      at.push_back(at.back() - UpkeepRates::Fetch(at.back()));
    }
    return at;
  };

  // A row for every page-aligned size below the threshold, each matching
  // its walk's length and stops, and every start advanced by every rounds
  // value up to the longest walk's length and a stride past it.
  UpkeepRates rates(ClusterConfig{}.planning_interval);
  const UpkeepRates::FetchTables& tables = UpkeepRates::Tables();
  const size_t rows = (UpkeepRates::kCapThreshold + kPageSize - 1) / kPageSize;
  ASSERT_EQ(tables.length.size(), rows);
  ASSERT_GT(tables.stops_per_row, 0u);
  ASSERT_EQ(tables.stops.size(), rows * tables.stops_per_row);
  std::vector<std::vector<uint64_t>> walks;
  uint64_t longest = 0;
  for (size_t p = 0; p < rows; ++p) {
    const std::vector<uint64_t>& walk = walks.emplace_back(positions(p * kPageSize));
    longest = std::max<uint64_t>(longest, walk.size() - 1);
    ASSERT_EQ(tables.length[p], walk.size() - 1) << p;
    const size_t stops =
        std::min(tables.stops_per_row, (walk.size() - 1) / UpkeepRates::kJumpStride);
    for (size_t j = 1; j <= stops; ++j) {
      ASSERT_EQ(tables.stops[p * tables.stops_per_row + j - 1], walk[j * UpkeepRates::kJumpStride])
          << p << " stop " << j;
    }
  }
  for (size_t p = 0; p < rows; ++p) {
    VmSlot vm;
    vm.ws_unfetched = p * kPageSize;
    const std::vector<uint64_t>& walk = walks[p];
    for (uint64_t rounds = 0; rounds <= longest + UpkeepRates::kJumpStride; ++rounds) {
      const uint64_t fetching = std::min<uint64_t>(rounds, walk.size() - 1);
      const UpkeepCounters got = rates.Advance(vm, rounds, 0);
      ASSERT_EQ(got.ws_unfetched, walk[fetching]) << vm.ws_unfetched << " over " << rounds;
      ASSERT_EQ(got.fetched_bytes, walk[0] - walk[fetching]) << vm.ws_unfetched;
      ASSERT_EQ(got.fetches, fetching) << vm.ws_unfetched << " over " << rounds;
    }
  }
}

TEST(UpkeepRatesTest, DirtyAndGrowthAreTheirPerRoundSums) {
  ClusterConfig config;
  config.planning_interval = SimTime::Seconds(600);
  UpkeepRates rates(config.planning_interval);
  EXPECT_EQ(rates.growth, GrowthPerInterval(config.planning_interval, kWsGrowthMiBPerHour));
  VmSlot vm;
  vm.ws_bytes = 100 * kMiB;
  for (uint64_t rounds : {0u, 1u, 5u, 40u, 500u}) {
    UpkeepCounters c = rates.Advance(vm, rounds, rounds / 2);
    EXPECT_EQ(c.ws_bytes, vm.ws_bytes + (rounds / 2) * rates.growth);
    uint64_t dirty = 0;
    for (uint64_t r = 0; r < rounds; ++r) {
      dirty = std::min(dirty + rates.dirty_step, kDirtyCapBytes);
    }
    EXPECT_EQ(c.dirty_bytes, dirty) << rounds;
  }
}

TEST(LazyUpkeepTest, MatchesTheEagerWalkEveryRound) {
  std::vector<Coverage> covered;
  for (ConsolidationPolicy policy :
       {ConsolidationPolicy::kFullToPartial, ConsolidationPolicy::kDefault,
        ConsolidationPolicy::kNewHome, ConsolidationPolicy::kOnlyPartial}) {
    for (DayKind day : {DayKind::kWeekday, DayKind::kWeekend}) {
      SCOPED_TRACE(std::string(ConsolidationPolicyName(policy)) +
                   (day == DayKind::kWeekday ? " weekday" : " weekend"));
      ClusterConfig config = TightCluster(policy, 11);
      covered.push_back(ExpectLazyMatchesEager(config, TraceFor(config, day)));
    }
  }
  for (const char* strategy : {"local-threshold", "first-fit-decreasing"}) {
    SCOPED_TRACE(strategy);
    ClusterConfig config = TightCluster(ConsolidationPolicy::kFullToPartial, 5);
    config.strategy_name = strategy;
    covered.push_back(ExpectLazyMatchesEager(config, TraceFor(config, DayKind::kWeekday)));
  }
  {
    SCOPED_TRACE("10-minute rounds, default growth");
    ClusterConfig config = TightCluster(ConsolidationPolicy::kFullToPartial, 3);
    config.planning_interval = SimTime::Seconds(600);
    covered.push_back(
        ExpectLazyMatchesEager(config, TraceFor(config, DayKind::kWeekday), kWsGrowthMiBPerHour));
  }
  for (uint64_t seed : {20160419u, 20160420u}) {
    SCOPED_TRACE("chaos day, seed " + std::to_string(seed));
    ClusterConfig config = TightCluster(ConsolidationPolicy::kFullToPartial, seed);
    config.fault = FaultConfig::ChaosDay();
    config.fault.migration_abort_per_hour = 4.0;
    for (int hour = 1; hour < 24; hour += 2) {
      config.fault.scheduled.push_back(
          {SimTime::Hours(hour) + SimTime::Seconds(17), FaultClass::kHostCrash, -1});
    }
    covered.push_back(ExpectLazyMatchesEager(config, TraceFor(config, DayKind::kWeekday)));
  }
  auto total = [&covered](auto field) {
    uint64_t sum = 0;
    for (const Coverage& c : covered) {
      sum += static_cast<uint64_t>(c.*field);
    }
    return sum;
  };
  EXPECT_GT(total(&Coverage::exhaustion_rounds), 0u);
  EXPECT_GT(total(&Coverage::drains), 0u);
  EXPECT_GT(total(&Coverage::conversions), 0u);
  EXPECT_GT(total(&Coverage::new_home_moves), 0u);
  EXPECT_GT(total(&Coverage::crashes), 0u);
  EXPECT_GT(total(&Coverage::memory_server_failures), 0u);
  EXPECT_GT(total(&Coverage::migration_aborts), 0u);
}

// The rule the trusted-idle bits replaced: a VM is trusted idle iff it is
// idle and its last active->idle edge, seen at a planning round, lies at
// least idle_smoothing_intervals planning intervals back. A VM idle at row 0
// has been idle since long before the day.
TEST(TrustedIdleTest, BitsMatchTheLastIdleEdgeRule) {
  for (int minutes : {1, 5, 15, 30}) {
    for (int window : {0, 2, 5}) {
      SCOPED_TRACE(std::to_string(minutes) + "-minute rounds, window " + std::to_string(window));
      ClusterConfig config = TightCluster(ConsolidationPolicy::kFullToPartial, 9);
      config.planning_interval = SimTime::Seconds(60.0 * minutes);
      config.idle_smoothing_intervals = window;
      ClusterManager m(config, TraceFor(config, DayKind::kWeekday));
      Peer::SetGrowth(m, GrowthPerInterval(config.planning_interval, kTightGrowthMiBPerHour));
      const size_t num_vms = m.num_vms();
      std::vector<SimTime> idle_since(num_vms, SimTime::Micros(INT64_MIN / 2));
      std::vector<VmActivity> seen(num_vms);
      for (size_t v = 0; v < num_vms; ++v) {
        seen[v] = m.GetVm(static_cast<VmId>(v)).activity;
      }
      uint64_t idle_untrusted = 0;
      // Reports only the first VM that breaks the rule at `now`.
      auto expect_rule = [&](SimTime now, const std::string& where) {
        ClusterView view = m.View();
        for (size_t v = 0; v < num_vms; ++v) {
          VmId id = static_cast<VmId>(v);
          bool idle = m.GetVm(id).activity == VmActivity::kIdle;
          bool want = idle && now - idle_since[v] >= config.planning_interval * window;
          idle_untrusted += idle && !want ? 1 : 0;
          if (view.trusted_idle(id) != want) {
            ADD_FAILURE() << where << ": VM " << v << " trusted-idle bit should be " << want;
            return false;
          }
        }
        return true;
      };
      bool same = expect_rule(SimTime::Zero(), "before round 0");
      for (int t = 0; same && t < Peer::RoundsPerDay(m); ++t) {
        SimTime when = config.planning_interval * t;
        m.RunUntil(when);
        for (size_t v = 0; v < num_vms; ++v) {
          VmActivity now_activity = m.GetVm(static_cast<VmId>(v)).activity;
          if (seen[v] == VmActivity::kActive && now_activity == VmActivity::kIdle) {
            idle_since[v] = when;
          }
          seen[v] = now_activity;
        }
        same = expect_rule(when, "round " + std::to_string(t));
      }
      // The window really held some idle VMs back.
      if (window > 0) {
        EXPECT_GT(idle_untrusted, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace oasis
