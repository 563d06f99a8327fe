// Actuator::RelocateGroup against one-VM moves.
//
// A group applies every move's slot change, resident bits and completion in
// order, but each host's reservation, active count and resident, homed and
// in-flight counts once, as sums. Two managers on the same config and trace
// are stepped to the same instant; random groups then move through
// RelocateGroup on one and one Relocate at a time on the twin. Every slot,
// resident set, maintained aggregate, reservation, active count, pending
// completion key and host joule must be bit-identical afterwards. The shapes
// include homes of 45 and 110 VMs, whose resident windows straddle words.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cluster/manager.h"
#include "src/common/rng.h"
#include "src/trace/trace_generator.h"

namespace oasis {

struct RelocateGroupTestPeer {
  using Move = Actuator::Move;
  static void Group(ClusterManager& m, SimTime now, const std::vector<Move>& moves) {
    m.act_.RelocateGroup(now, moves);
  }
  static void OneByOne(ClusterManager& m, SimTime now, const std::vector<Move>& moves) {
    for (const Move& move : moves) {
      m.act_.Relocate(now, move);
    }
  }
  // Moves must start from settled slots and current in-flight state.
  static void Prepare(ClusterManager& m) {
    m.act_.RetireCompletions();
    m.act_.SettleAllUpkeep();
  }
  static const ClusterState& State(const ClusterManager& m) { return m.state_; }
};

namespace {

using Peer = RelocateGroupTestPeer;
using Move = Peer::Move;

// Random groups of moves from one occupied host's residents, each to the VM's home
// or to a powered consolidation host with room, some as a second move of a
// VM the group already moved. Drawn against `m`'s state before the groups
// apply, room followed per destination.
std::vector<std::vector<Move>> DrawGroups(const ClusterManager& m, SimTime now, Rng& rng,
                                          int groups) {
  const ClusterState& state = Peer::State(m);
  const ClusterConfig& config = m.config();
  std::vector<uint64_t> room(state.hosts.size(), 0);
  std::vector<HostId> cons;
  for (const auto& host : state.hosts) {
    if (host->IsConsolidationHost() && host->IsPowered()) {
      room[host->id()] = host->AvailableBytes();
      cons.push_back(host->id());
    }
  }
  std::vector<HostId> occupied;
  for (const auto& host : state.hosts) {
    if (host->HasVms()) {
      occupied.push_back(host->id());
    }
  }
  std::vector<bool> used(state.vms.size(), false);
  const VmSlot::PendingOp kOps[] = {VmSlot::PendingOp::kNone, VmSlot::PendingOp::kOther,
                                    VmSlot::PendingOp::kVacatePartial,
                                    VmSlot::PendingOp::kReturnMove};
  std::vector<std::vector<Move>> out;
  for (int g = 0; g < groups; ++g) {
    const ClusterHost& source = *state.hosts[occupied[rng.NextBelow(occupied.size())]];
    std::vector<Move> moves;
    for (VmId id : source.vms()) {
      const VmSlot& vm = state.vms[id];
      if (used[id] || vm.migration_in_flight || rng.NextBool(0.4)) {
        continue;
      }
      used[id] = true;
      HostId from = vm.location;
      VmResidency residency = vm.residency;
      uint64_t ws_bytes = vm.ws_bytes;
      int legs = rng.NextBool(0.25) ? 2 : 1;
      for (int leg = 0; leg < legs; ++leg) {
        Move move{id, vm.home, VmResidency::kFullAtHome};
        if (!cons.empty() && rng.NextBool(0.7)) {
          const HostId dest = cons[rng.NextBelow(cons.size())];
          const bool partial = rng.NextBool(0.6);
          // A partial that stays partial keeps its working set.
          const bool keeps_ws = partial && residency == VmResidency::kPartial;
          const uint64_t ws = keeps_ws ? ws_bytes : (4096 + rng.NextBelow(65536)) * kPageSize;
          const uint64_t need = partial ? ws : config.vm_memory_bytes;
          if (need <= room[dest] && !(dest == from && keeps_ws)) {
            room[dest] -= need;
            move.dest = dest;
            move.residency = partial ? VmResidency::kPartial : VmResidency::kFullAtConsolidation;
            move.ws = ws;
          }
        }
        residency = move.residency;
        ws_bytes = move.residency == VmResidency::kPartial ? move.ws : 0;
        move.op = kOps[rng.NextBelow(4)];
        move.start = now;
        move.done = now + SimTime::Seconds(1.0 + static_cast<double>(rng.NextBelow(100)));
        move.source = from;
        moves.push_back(move);
        from = move.dest;
      }
    }
    out.push_back(std::move(moves));
  }
  return out;
}

void ExpectSameSlot(const VmSlot& a, const VmSlot& b) {
  SCOPED_TRACE("VM " + std::to_string(a.id));
  EXPECT_EQ(a.location, b.location);
  EXPECT_EQ(a.activity, b.activity);
  EXPECT_EQ(a.residency, b.residency);
  EXPECT_EQ(a.ws_bytes, b.ws_bytes);
  EXPECT_EQ(a.ws_unfetched, b.ws_unfetched);
  EXPECT_EQ(a.dirty_bytes, b.dirty_bytes);
  EXPECT_EQ(a.migration_in_flight, b.migration_in_flight);
  EXPECT_EQ(a.activation_pending, b.activation_pending);
  EXPECT_EQ(a.upkeep_mark, b.upkeep_mark);
  EXPECT_EQ(a.activation_time, b.activation_time);
  EXPECT_EQ(a.pending_op, b.pending_op);
  EXPECT_EQ(a.migration_start, b.migration_start);
  EXPECT_EQ(a.migration_source, b.migration_source);
  EXPECT_EQ(a.op_epoch, b.op_epoch);
}

void ExpectSameWorlds(const ClusterManager& group, const ClusterManager& twin, SimTime now) {
  const ClusterState& a = Peer::State(group);
  const ClusterState& b = Peer::State(twin);
  for (size_t v = 0; v < a.vms.size(); ++v) {
    ExpectSameSlot(a.vms[v], b.vms[v]);
  }
  for (size_t h = 0; h < a.hosts.size(); ++h) {
    SCOPED_TRACE("host " + std::to_string(h));
    const ClusterHost& x = *a.hosts[h];
    const ClusterHost& y = *b.hosts[h];
    EXPECT_TRUE(std::ranges::equal(x.vms().words(), y.vms().words()));
    EXPECT_EQ(x.vms().size(), y.vms().size());
    EXPECT_EQ(x.reserved_bytes(), y.reserved_bytes());
    EXPECT_EQ(x.active_vms(), y.active_vms());
    EXPECT_EQ(x.HostEnergyAt(now), y.HostEnergyAt(now));
    EXPECT_EQ(x.HostEnergyAt(now + SimTime::Hours(1.0)),
              y.HostEnergyAt(now + SimTime::Hours(1.0)));
  }
  EXPECT_EQ(a.partials_homed, b.partials_homed);
  EXPECT_EQ(a.fac_homed, b.fac_homed);
  EXPECT_EQ(a.fac_vm_bits, b.fac_vm_bits);
  EXPECT_EQ(a.inflight_residents, b.inflight_residents);
  EXPECT_EQ(a.partial_residents, b.partial_residents);
  EXPECT_EQ(a.upkeep_residents, b.upkeep_residents);
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i].done, b.completions[i].done) << "completion " << i;
    EXPECT_EQ(a.completions[i].seq, b.completions[i].seq) << "completion " << i;
    EXPECT_EQ(a.completions[i].vm, b.completions[i].vm) << "completion " << i;
    EXPECT_EQ(a.completions[i].epoch, b.completions[i].epoch) << "completion " << i;
  }
}

// Steps both managers to `until`, moves `groups` random groups through each,
// and compares them; returns how many moves the groups made.
size_t MoveTwins(const ClusterConfig& config, SimTime until, uint64_t seed, int groups) {
  TraceGenerator gen(TraceGeneratorConfig{}, config.seed);
  const TraceSet trace = gen.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday);
  ClusterManager group(config, trace);
  ClusterManager twin(config, trace);
  group.RunUntil(until);
  twin.RunUntil(until);
  Peer::Prepare(group);
  Peer::Prepare(twin);
  Rng rng(seed);
  size_t moved = 0;
  for (const std::vector<Move>& moves : DrawGroups(group, until, rng, groups)) {
    Peer::Group(group, until, moves);
    Peer::OneByOne(twin, until, moves);
    moved += moves.size();
  }
  ExpectSameWorlds(group, twin, until);
  return moved;
}

TEST(RelocateGroupTest, GroupsMatchOneVmMovesOnEveryShape) {
  struct Shape {
    const char* name;
    int homes;
    int cons;
    int vms_per_home;
  };
  const Shape kShapes[] = {
      {"6 x 10 + 2", 6, 2, 10},
      {"8 x 45 + 3", 8, 3, 45},
      {"36 x 110 + 4", 36, 4, 110},
  };
  for (const Shape& shape : kShapes) {
    for (double hour : {3.0, 9.5, 14.0}) {
      SCOPED_TRACE(std::string(shape.name) + " at " + std::to_string(hour) + " h");
      ClusterConfig config;
      config.num_home_hosts = shape.homes;
      config.num_consolidation_hosts = shape.cons;
      config.SetVmsPerHome(shape.vms_per_home);
      config.seed = 7 + static_cast<uint64_t>(hour);
      EXPECT_GT(MoveTwins(config, SimTime::Hours(hour), 1000 + static_cast<uint64_t>(hour), 12),
                20u);
    }
  }
}

}  // namespace
}  // namespace oasis
