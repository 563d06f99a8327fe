#include "src/cluster/oracle.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "src/cluster/manager.h"
#include "src/common/digest.h"
#include "src/common/rng.h"
#include "src/hyper/migration_model.h"
#include "src/mem/working_set.h"

namespace oasis {
namespace {

// Annealing budget and geometric temperature schedule (joules). They
// converge well within the gap harness's tolerances on the 30-home paper
// rack; they are part of the oracle's pinned definition, so changing them
// moves golden digests.
constexpr int kSaIterations = 40000;
constexpr double kInitialTemperatureJ = 30000.0;
constexpr double kFinalTemperatureJ = 100.0;
// Longest window (in intervals) a single annealing move rewrites.
constexpr int kMaxMoveIntervals = 24;
// Folded into the caller's seed so the oracle's working-set draws and move
// sequence are decorrelated from the simulation's own streams.
constexpr uint64_t kSeedSalt = 0x6F7261636C65ULL;  // "oracle"

constexpr double kIntervalSeconds = static_cast<double>(kTraceIntervalSeconds);

// The day's activity and cost constants, precomputed once per Solve so the
// annealer's inner loop is pure arithmetic.
//
// Heterogeneous fleets: every per-home rate lives in a per-profile-class
// table (class 0 is the config.host_power template, class k >= 1 the k-th
// FleetMix segment). On the homogeneous default there is exactly one class
// holding the same values the old scalar fields held, and every fold below
// visits it alone — so the uniform digests pinned in the goldens are
// reproduced bit for bit. The consolidation tier keeps scalar rates: hosts
// there are interchangeable in this model, so on a mixed fleet they are
// priced *optimistically* (cheapest generation's idle/per-VM/sleep draw,
// largest capacity) — that keeps both the relaxation and the annealed
// schedule value lower bounds of their real-fleet counterparts.
struct DayModel {
  int num_homes;
  int num_cons;
  int vms_per_home;
  int intervals;
  uint64_t cons_capacity;  // effective bytes per consolidation host
  double ms_w;
  double cons_idle_w;
  double per_vm_w;
  double cons_sleep_w;
  double partial_mig_s;
  double full_mig_s;

  // Per profile class (size num_classes).
  int num_classes = 1;
  std::vector<int> homes_in_class;
  std::vector<double> class_loaded_w;  // powered home draw (saturated rate)
  std::vector<double> class_sleep_w;
  std::vector<double> class_suspend_j;  // one S3 entry transition
  std::vector<double> class_resume_j;   // one S3 exit transition
  std::vector<uint8_t> class_sleepable;
  std::vector<int> home_class;  // per home

  // Per (home, interval), flattened h * intervals + t.
  std::vector<int> active_count;
  std::vector<uint64_t> parked_bytes;  // bytes the home parks if asleep then
  std::vector<uint8_t> parks_idle;     // parks at least one idle VM (ms on)

  size_t At(int h, int t) const {
    return static_cast<size_t>(h) * static_cast<size_t>(intervals) + static_cast<size_t>(t);
  }
  bool Sleepable(int h) const {
    return class_sleepable[static_cast<size_t>(home_class[static_cast<size_t>(h)])] != 0;
  }
};

DayModel BuildModel(const ClusterConfig& config, const TraceSet& trace,
                    const std::vector<uint64_t>& ws) {
  DayModel m;
  m.num_homes = config.num_home_hosts;
  m.num_cons = config.num_consolidation_hosts;
  m.vms_per_home = config.vms_per_home;
  m.intervals = kIntervalsPerDay;
  m.ms_w = config.memory_server_power.TotalWatts();
  m.partial_mig_s = kPartialMigrationTime.seconds();
  m.full_mig_s = kFullMigrationTime.seconds();

  // Per-class home rates.
  m.num_classes = config.NumProfileClasses();
  m.homes_in_class.assign(static_cast<size_t>(m.num_classes), 0);
  m.home_class.resize(static_cast<size_t>(m.num_homes));
  for (int h = 0; h < m.num_homes; ++h) {
    int cls = config.ProfileClassOf(static_cast<HostId>(h));
    m.home_class[static_cast<size_t>(h)] = cls;
    ++m.homes_in_class[static_cast<size_t>(cls)];
  }
  for (int cls = 0; cls < m.num_classes; ++cls) {
    const HostProfile profile = config.ResolvedProfile(cls);
    const HostPowerProfile& p = profile.power;
    m.class_loaded_w.push_back(p.Draw(HostPowerState::kPowered, config.vms_per_home));
    m.class_sleep_w.push_back(p.sleep_watts);
    m.class_suspend_j.push_back(p.suspend_latency.seconds() * p.suspend_watts);
    m.class_resume_j.push_back(p.resume_latency.seconds() * p.resume_watts);
    m.class_sleepable.push_back(profile.s3_capable ? 1 : 0);
  }

  // Consolidation-tier scalars: optimistic over the classes that actually
  // cover consolidation-host ids (see the struct comment). A uniform fleet
  // visits class 0 alone, reproducing the legacy constants exactly.
  double cons_idle = 0.0;
  double cons_per_vm = 0.0;
  double cons_sleep = 0.0;
  double cons_scale = 1.0;
  bool first_cons_class = true;
  std::vector<uint8_t> class_has_cons(static_cast<size_t>(m.num_classes), 0);
  for (int c = 0; c < m.num_cons; ++c) {
    class_has_cons[static_cast<size_t>(
        config.ProfileClassOf(static_cast<HostId>(m.num_homes + c)))] = 1;
  }
  for (int cls = 0; cls < m.num_classes; ++cls) {
    if (class_has_cons[static_cast<size_t>(cls)] == 0) {
      continue;
    }
    const HostProfile profile = config.ResolvedProfile(cls);
    const HostPowerProfile& p = profile.power;
    if (first_cons_class) {
      cons_idle = p.idle_watts;
      cons_per_vm = p.PerVmWatts();
      cons_sleep = p.sleep_watts;
      cons_scale = profile.capacity_scale;
      first_cons_class = false;
    } else {
      cons_idle = std::min(cons_idle, p.idle_watts);
      cons_per_vm = std::min(cons_per_vm, p.PerVmWatts());
      cons_sleep = std::min(cons_sleep, p.sleep_watts);
      cons_scale = std::max(cons_scale, profile.capacity_scale);
    }
  }
  if (first_cons_class) {
    // No consolidation hosts at all: keep the class-0 template rates so the
    // (never-exercised) cons terms stay defined.
    cons_idle = config.host_power.idle_watts;
    cons_per_vm = config.host_power.PerVmWatts();
    cons_sleep = config.host_power.sleep_watts;
  }
  m.cons_idle_w = cons_idle;
  m.per_vm_w = cons_per_vm;
  m.cons_sleep_w = cons_sleep;
  m.cons_capacity = static_cast<uint64_t>(
      static_cast<double>(config.host_memory_bytes) * config.memory_overcommit * cons_scale);

  size_t cells = static_cast<size_t>(m.num_homes) * static_cast<size_t>(m.intervals);
  m.active_count.assign(cells, 0);
  m.parked_bytes.assign(cells, 0);
  m.parks_idle.assign(cells, 0);
  for (int h = 0; h < m.num_homes; ++h) {
    for (int k = 0; k < m.vms_per_home; ++k) {
      size_t vm_id = static_cast<size_t>(h) * static_cast<size_t>(m.vms_per_home) +
                     static_cast<size_t>(k);
      const UserDay& day = trace[vm_id % trace.size()];
      for (int t = 0; t < m.intervals; ++t) {
        size_t at = m.At(h, t);
        if (day.IsActive(t)) {
          ++m.active_count[at];
          m.parked_bytes[at] += config.vm_memory_bytes;
        } else {
          m.parked_bytes[at] += ws[vm_id];
          m.parks_idle[at] = 1;
        }
      }
    }
  }
  return m;
}

// Cluster draw at one interval given the sleeping-home aggregates
// (`sleeping_by_class` points at m.num_classes per-class counts). Sets
// *feasible to whether the parked load fits the consolidation tier.
double PowerAt(const DayModel& m, const int* sleeping_by_class, int parked_active,
               int parked_idle, uint64_t parked_bytes, int ms_on, bool* feasible) {
  uint64_t by_bytes =
      parked_bytes == 0 ? 0 : (parked_bytes + m.cons_capacity - 1) / m.cons_capacity;
  int by_cpu = parked_active == 0
                   ? 0
                   : (parked_active + kMaxActiveVmsPerHost - 1) / kMaxActiveVmsPerHost;
  int cons = static_cast<int>(std::max<uint64_t>(by_bytes, static_cast<uint64_t>(by_cpu)));
  if (feasible != nullptr) {
    *feasible = cons <= m.num_cons;
  }
  cons = std::min(cons, m.num_cons);
  double residents = static_cast<double>(parked_active + parked_idle);
  // Per-class home draw: awake homes at their own loaded rate, sleeping
  // ones at their own S3 rate. One class on a uniform fleet, so the fold
  // is the legacy two-term expression bit for bit.
  double home_w = 0.0;
  for (int cls = 0; cls < m.num_classes; ++cls) {
    size_t c = static_cast<size_t>(cls);
    int slp = sleeping_by_class[cls];
    if (m.homes_in_class[c] == 0 && slp == 0) {
      continue;
    }
    home_w += static_cast<double>(m.homes_in_class[c] - slp) * m.class_loaded_w[c] +
              static_cast<double>(slp) * m.class_sleep_w[c];
  }
  return home_w + static_cast<double>(ms_on) * m.ms_w +
         static_cast<double>(cons) * m.cons_idle_w +
         m.per_vm_w * std::min(residents, 20.0 * cons) +
         static_cast<double>(m.num_cons - cons) * m.cons_sleep_w;
}

// Whole-day schedule state with incrementally maintained per-interval
// aggregates and energy terms.
struct Schedule {
  const DayModel* m;
  // rows[h][t] = 1 while home h sleeps.
  std::vector<std::vector<uint8_t>> rows;
  // Per t: how many homes of each profile class sleep (flattened
  // t * num_classes + cls). Integer per-class counts keep every
  // incremental move exactly reversible, mixed fleet or not.
  std::vector<int> sleeping_by_class;
  std::vector<int> parked_active;  // per t
  std::vector<int> parked_idle;    // per t
  std::vector<uint64_t> parked_bytes;
  std::vector<int> ms_on;
  std::vector<double> power;  // per t, watts
  std::vector<double> trans;  // per home, joules
  double power_sum = 0.0;     // watts summed over intervals
  double trans_sum = 0.0;

  explicit Schedule(const DayModel& model)
      : m(&model),
        rows(static_cast<size_t>(model.num_homes),
             std::vector<uint8_t>(static_cast<size_t>(model.intervals), 0)),
        sleeping_by_class(static_cast<size_t>(model.intervals) *
                              static_cast<size_t>(model.num_classes),
                          0),
        parked_active(static_cast<size_t>(model.intervals), 0),
        parked_idle(static_cast<size_t>(model.intervals), 0),
        parked_bytes(static_cast<size_t>(model.intervals), 0),
        ms_on(static_cast<size_t>(model.intervals), 0),
        power(static_cast<size_t>(model.intervals), 0.0),
        trans(static_cast<size_t>(model.num_homes), 0.0) {}

  const int* SleepingAt(int t) const {
    return &sleeping_by_class[static_cast<size_t>(t) *
                              static_cast<size_t>(m->num_classes)];
  }

  void AddHomeAt(int h, int t, int sign) {
    size_t at = m->At(h, t);
    size_t ti = static_cast<size_t>(t);
    sleeping_by_class[ti * static_cast<size_t>(m->num_classes) +
                      static_cast<size_t>(m->home_class[static_cast<size_t>(h)])] += sign;
    parked_active[ti] += sign * m->active_count[at];
    parked_idle[ti] += sign * (m->vms_per_home - m->active_count[at]);
    if (sign > 0) {
      parked_bytes[ti] += m->parked_bytes[at];
    } else {
      parked_bytes[ti] -= m->parked_bytes[at];
    }
    ms_on[ti] += sign * static_cast<int>(m->parks_idle[at]);
  }

  // Entry/exit costs of every sleep episode of home h: migration-out at
  // loaded power (serialized on the source NIC, capped at one interval),
  // the S3 suspend, and — when the episode ends within the day — the S3
  // resume.
  double HomeTransitionCost(int h) const {
    const std::vector<uint8_t>& row = rows[static_cast<size_t>(h)];
    double cost = 0.0;
    int t = 0;
    while (t < m->intervals) {
      if (row[static_cast<size_t>(t)] == 0) {
        ++t;
        continue;
      }
      int entry = t;
      while (t < m->intervals && row[static_cast<size_t>(t)] != 0) {
        ++t;
      }
      int n_active = m->active_count[m->At(h, entry)];
      int n_idle = m->vms_per_home - n_active;
      double mig_s = std::min(kIntervalSeconds, static_cast<double>(n_idle) * m->partial_mig_s +
                                                    static_cast<double>(n_active) * m->full_mig_s);
      size_t cls = static_cast<size_t>(m->home_class[static_cast<size_t>(h)]);
      cost += m->class_suspend_j[cls] +
              mig_s * (m->class_loaded_w[cls] - m->class_sleep_w[cls]);
      if (t < m->intervals) {
        cost += m->class_resume_j[cls];
      }
    }
    return cost;
  }

  // Recomputes every derived term from the rows (used after init).
  // Returns false if any interval is infeasible.
  bool RebuildAll() {
    std::fill(sleeping_by_class.begin(), sleeping_by_class.end(), 0);
    std::fill(parked_active.begin(), parked_active.end(), 0);
    std::fill(parked_idle.begin(), parked_idle.end(), 0);
    std::fill(parked_bytes.begin(), parked_bytes.end(), 0);
    std::fill(ms_on.begin(), ms_on.end(), 0);
    for (int h = 0; h < m->num_homes; ++h) {
      for (int t = 0; t < m->intervals; ++t) {
        if (rows[static_cast<size_t>(h)][static_cast<size_t>(t)] != 0) {
          AddHomeAt(h, t, +1);
        }
      }
    }
    power_sum = 0.0;
    bool all_feasible = true;
    for (int t = 0; t < m->intervals; ++t) {
      size_t ti = static_cast<size_t>(t);
      bool feasible = true;
      power[ti] = PowerAt(*m, SleepingAt(t), parked_active[ti], parked_idle[ti],
                          parked_bytes[ti], ms_on[ti], &feasible);
      all_feasible = all_feasible && feasible;
      power_sum += power[ti];
    }
    trans_sum = 0.0;
    for (int h = 0; h < m->num_homes; ++h) {
      trans[static_cast<size_t>(h)] = HomeTransitionCost(h);
      trans_sum += trans[static_cast<size_t>(h)];
    }
    return all_feasible;
  }

  double EnergyJoules() const { return power_sum * kIntervalSeconds + trans_sum; }
};

// Hindsight-greedy starting point: sleep every all-idle run of at least two
// intervals (one interval doesn't amortize the transitions), then wake the
// biggest parkers wherever the consolidation tier overflows.
void InitSchedule(Schedule& s) {
  const DayModel& m = *s.m;
  for (int h = 0; h < m.num_homes; ++h) {
    if (!m.Sleepable(h)) {
      continue;  // an S3-incapable home never sleeps in any schedule
    }
    int t = 0;
    while (t < m.intervals) {
      if (m.active_count[m.At(h, t)] != 0) {
        ++t;
        continue;
      }
      int run = t;
      while (t < m.intervals && m.active_count[m.At(h, t)] == 0) {
        ++t;
      }
      if (t - run >= 2) {
        for (int u = run; u < t; ++u) {
          s.rows[static_cast<size_t>(h)][static_cast<size_t>(u)] = 1;
        }
      }
    }
  }
  if (s.RebuildAll()) {
    return;
  }
  // Feasibility repair, interval by interval.
  for (int t = 0; t < m.intervals; ++t) {
    size_t ti = static_cast<size_t>(t);
    for (;;) {
      bool feasible = true;
      (void)PowerAt(m, s.SleepingAt(t), s.parked_active[ti], s.parked_idle[ti],
                    s.parked_bytes[ti], s.ms_on[ti], &feasible);
      if (feasible) {
        break;
      }
      int worst = -1;
      uint64_t worst_bytes = 0;
      for (int h = 0; h < m.num_homes; ++h) {
        if (s.rows[static_cast<size_t>(h)][ti] != 0 &&
            (worst < 0 || m.parked_bytes[m.At(h, t)] > worst_bytes)) {
          worst = h;
          worst_bytes = m.parked_bytes[m.At(h, t)];
        }
      }
      if (worst < 0) {
        break;  // nothing left to wake; PowerAt already clamps
      }
      s.rows[static_cast<size_t>(worst)][ti] = 0;
      s.AddHomeAt(worst, t, -1);
    }
  }
  (void)s.RebuildAll();
}

double RelaxedLowerBound(const DayModel& m) {
  double total_w = 0.0;
  // Only sleepable homes enter the prefix walk: no real schedule can park
  // an S3-incapable home, so restricting the relaxation to the sleepable
  // set keeps it a valid (and tighter) floor on mixed fleets.
  std::vector<std::tuple<int, uint64_t, int>> order;
  order.reserve(static_cast<size_t>(m.num_homes));
  std::vector<int> sleeping(static_cast<size_t>(m.num_classes), 0);
  const std::vector<int> none(static_cast<size_t>(m.num_classes), 0);
  for (int t = 0; t < m.intervals; ++t) {
    order.clear();
    for (int h = 0; h < m.num_homes; ++h) {
      if (!m.Sleepable(h)) {
        continue;
      }
      size_t at = m.At(h, t);
      order.emplace_back(m.active_count[at], m.parked_bytes[at], h);
    }
    std::sort(order.begin(), order.end());
    std::fill(sleeping.begin(), sleeping.end(), 0);
    int parked_active = 0;
    int parked_idle = 0;
    uint64_t parked = 0;
    int ms = 0;
    bool feasible = true;
    double best = PowerAt(m, none.data(), 0, 0, 0, 0, nullptr);  // everything powered
    for (const auto& [a, bytes, h] : order) {
      ++sleeping[static_cast<size_t>(m.home_class[static_cast<size_t>(h)])];
      parked_active += a;
      parked_idle += m.vms_per_home - a;
      parked += bytes;
      ms += static_cast<int>(m.parks_idle[m.At(h, t)]);
      double p =
          PowerAt(m, sleeping.data(), parked_active, parked_idle, parked, ms, &feasible);
      if (!feasible) {
        break;
      }
      best = std::min(best, p);
    }
    total_w += best;
  }
  return total_w * kIntervalSeconds;
}

void Anneal(Schedule& s, Rng& rng) {
  const DayModel& m = *s.m;
  std::vector<int> changed;
  std::vector<double> old_power;
  for (int i = 0; i < kSaIterations; ++i) {
    double frac = static_cast<double>(i) / static_cast<double>(kSaIterations);
    double temp = kInitialTemperatureJ * std::pow(kFinalTemperatureJ / kInitialTemperatureJ, frac);
    int h = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(m.num_homes)));
    int t0 = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(m.intervals)));
    int len = 1 + static_cast<int>(rng.NextBelow(static_cast<uint64_t>(kMaxMoveIntervals)));
    int t1 = std::min(m.intervals, t0 + len);
    uint8_t v = static_cast<uint8_t>(rng.NextBelow(2));
    // All four proposal draws happen before this gate, so the rng sequence
    // is identical whether or not the fleet has unsleepable homes.
    if (v != 0 && !m.Sleepable(h)) {
      continue;
    }
    std::vector<uint8_t>& row = s.rows[static_cast<size_t>(h)];

    changed.clear();
    old_power.clear();
    for (int t = t0; t < t1; ++t) {
      if (row[static_cast<size_t>(t)] != v) {
        changed.push_back(t);
      }
    }
    if (changed.empty()) {
      continue;
    }
    int sign = v != 0 ? +1 : -1;
    bool infeasible = false;
    double power_delta = 0.0;
    size_t applied = 0;
    for (int t : changed) {
      size_t ti = static_cast<size_t>(t);
      old_power.push_back(s.power[ti]);
      s.AddHomeAt(h, t, sign);
      ++applied;
      bool feasible = true;
      double p = PowerAt(m, s.SleepingAt(t), s.parked_active[ti], s.parked_idle[ti],
                         s.parked_bytes[ti], s.ms_on[ti], &feasible);
      if (v != 0 && !feasible) {
        infeasible = true;
        break;
      }
      power_delta += p - s.power[ti];
      s.power[ti] = p;
    }
    if (infeasible) {
      for (size_t k = 0; k < applied; ++k) {
        int t = changed[k];
        s.AddHomeAt(h, t, -sign);
        if (k + 1 < applied) {
          s.power[static_cast<size_t>(t)] = old_power[k];
        }
      }
      continue;
    }
    for (int t : changed) {
      row[static_cast<size_t>(t)] = v;
    }
    double old_trans = s.trans[static_cast<size_t>(h)];
    double new_trans = s.HomeTransitionCost(h);
    double delta_j = power_delta * kIntervalSeconds + (new_trans - old_trans);
    bool accept = delta_j <= 0.0 || rng.NextDouble() < std::exp(-delta_j / temp);
    if (accept) {
      s.power_sum += power_delta;
      s.trans[static_cast<size_t>(h)] = new_trans;
      s.trans_sum += new_trans - old_trans;
      continue;
    }
    for (size_t k = 0; k < changed.size(); ++k) {
      int t = changed[k];
      row[static_cast<size_t>(t)] = static_cast<uint8_t>(v == 0 ? 1 : 0);
      s.AddHomeAt(h, t, -sign);
      s.power[static_cast<size_t>(t)] = old_power[k];
    }
  }
}

}  // namespace

uint64_t OracleResult::Digest() const {
  Fnv1a fnv(Fnv1a::kShortBasis);
  fnv.Fold(relaxed_lower_bound);
  fnv.Fold(schedule_energy);
  fnv.Fold(baseline_energy);
  return fnv.hash();
}

OfflineOracle::OfflineOracle(const ClusterConfig& config) : config_(config) {}

OracleResult OfflineOracle::Solve(const TraceSet& trace, uint64_t seed) const {
  OracleResult result;
  result.baseline_energy = ClusterManager::BaselineEnergy(config_);
  if (trace.empty() || config_.num_home_hosts == 0) {
    result.schedule_energy = result.baseline_energy;
    result.relaxed_lower_bound = result.baseline_energy;
    return result;
  }
  // The oracle's own working-set draws: sampled in VM id order from a
  // sampler seeded off (seed, salt) only, so the result is independent of
  // anything the simulation drew.
  size_t num_vms = static_cast<size_t>(config_.TotalVms());
  WorkingSetSampler sampler(config_.vm_memory_bytes, seed ^ kSeedSalt);
  std::vector<uint64_t> ws(num_vms, 0);
  for (size_t v = 0; v < num_vms; ++v) {
    ws[v] = sampler.Sample();
  }
  DayModel model = BuildModel(config_, trace, ws);
  Schedule schedule(model);
  InitSchedule(schedule);
  Rng rng(seed ^ (kSeedSalt * 0x9E3779B97F4A7C15ULL));
  Anneal(schedule, rng);
  result.schedule_energy = schedule.EnergyJoules();
  // The per-interval relaxation is a floor under every schedule the model
  // admits; min() guards the reported pair's ordering against any tie-level
  // arithmetic wobble in the prefix heuristic.
  result.relaxed_lower_bound = std::min(RelaxedLowerBound(model), result.schedule_energy);
  return result;
}

double OptimalityGap(Joules strategy_energy, const OracleResult& oracle) {
  if (oracle.schedule_energy <= 0.0) {
    return 0.0;
  }
  return strategy_energy / oracle.schedule_energy - 1.0;
}

}  // namespace oasis
