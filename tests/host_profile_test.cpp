// Heterogeneous-fleet plumbing: the HostProfile catalog, the OASIS_FLEET
// wire format, ClusterConfig's host -> profile-class resolution, and the
// strict-mode contract that an s3_capable=false host can never be suspended.
//
// The homogeneous-default pin matters most: an empty FleetMix must resolve
// every host to class 0, whose power curve IS ClusterConfig::host_power —
// watt-for-watt, not approximately — because every pre-existing golden and
// metamorphic digest rides on that identity.

#include "src/power/host_profile.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/check/run_scope.h"
#include "src/cluster/cluster_types.h"
#include "src/cluster/host.h"
#include "src/power/power_model.h"
#include "src/sim/simulator.h"

namespace oasis {
namespace {

// Bitwise equality between two power curves — the fleet refactor's contract
// is byte identity on the default path, so EXPECT_NEAR is not good enough.
void ExpectSameCurve(const HostPowerProfile& a, const HostPowerProfile& b) {
  EXPECT_EQ(a.idle_watts, b.idle_watts);
  EXPECT_EQ(a.watts_at_20_vms, b.watts_at_20_vms);
  EXPECT_EQ(a.sleep_watts, b.sleep_watts);
  EXPECT_EQ(a.suspend_watts, b.suspend_watts);
  EXPECT_EQ(a.resume_watts, b.resume_watts);
  EXPECT_EQ(a.suspend_latency, b.suspend_latency);
  EXPECT_EQ(a.resume_latency, b.resume_latency);
}

// --- HostPowerProfile::Scaled -----------------------------------------------

TEST(ScaledProfileTest, ScalesEveryWattageAndLeavesLatenciesAlone) {
  HostPowerProfile base;
  HostPowerProfile scaled = base.Scaled(1.5);
  EXPECT_EQ(scaled.idle_watts, base.idle_watts * 1.5);
  EXPECT_EQ(scaled.watts_at_20_vms, base.watts_at_20_vms * 1.5);
  EXPECT_EQ(scaled.sleep_watts, base.sleep_watts * 1.5);
  EXPECT_EQ(scaled.suspend_watts, base.suspend_watts * 1.5);
  EXPECT_EQ(scaled.resume_watts, base.resume_watts * 1.5);
  // Resizing the box changes its draw, not its ACPI timing.
  EXPECT_EQ(scaled.suspend_latency, base.suspend_latency);
  EXPECT_EQ(scaled.resume_latency, base.resume_latency);
  // The identity scale is the identity transform, bit for bit.
  ExpectSameCurve(base.Scaled(1.0), base);
}

TEST(ScaledProfileTest, SetVmsPerHomeUsesTheSharedScaleTransform) {
  // SetVmsPerHome(45) is the old hand-scaling call site; it must now be
  // exactly Scaled(45/30) — same products, same bits.
  ClusterConfig config;
  const HostPowerProfile before = config.host_power;
  config.SetVmsPerHome(45);
  ExpectSameCurve(config.host_power, before.Scaled(1.5));
  EXPECT_EQ(config.vms_per_home, 45);
  EXPECT_EQ(config.fleet_power_scale, 1.5);
  EXPECT_EQ(config.host_memory_bytes, static_cast<uint64_t>(192) * kGiB);
}

// --- the generation catalog -------------------------------------------------

TEST(CatalogTest, HasTheThreeGenerations) {
  const std::vector<HostProfile>& catalog = HostGenerationCatalog();
  ASSERT_EQ(catalog.size(), 3u);
  EXPECT_EQ(catalog[0].generation, "table1");
  EXPECT_EQ(catalog[1].generation, "efficient-v2");
  EXPECT_EQ(catalog[2].generation, "legacy-no-s3");
  for (const HostProfile& profile : catalog) {
    EXPECT_NE(HostGenerationNames().find(profile.generation), std::string::npos);
    EXPECT_EQ(FindHostGeneration(profile.generation), &profile);
  }
  EXPECT_EQ(FindHostGeneration("supermicro-x9"), nullptr);
}

TEST(CatalogTest, Table1IsThePaperHostWattForWatt) {
  const HostProfile* table1 = FindHostGeneration("table1");
  ASSERT_NE(table1, nullptr);
  ExpectSameCurve(table1->power, HostPowerProfile());
  EXPECT_TRUE(table1->s3_capable);
  EXPECT_EQ(table1->capacity_scale, 1.0);
}

TEST(CatalogTest, GenerationsSpanTheInterestingAxes) {
  const HostProfile* efficient = FindHostGeneration("efficient-v2");
  const HostProfile* legacy = FindHostGeneration("legacy-no-s3");
  ASSERT_NE(efficient, nullptr);
  ASSERT_NE(legacy, nullptr);
  const HostPowerProfile table1;
  // The newer box idles and sleeps cheaper, cycles S3 faster, packs more.
  EXPECT_LT(efficient->power.idle_watts, table1.idle_watts);
  EXPECT_LT(efficient->power.sleep_watts, table1.sleep_watts);
  EXPECT_LT(efficient->power.suspend_latency, table1.suspend_latency);
  EXPECT_TRUE(efficient->s3_capable);
  EXPECT_EQ(efficient->capacity_scale, 1.25);
  // The legacy box is hungrier everywhere and cannot enter S3 at all.
  EXPECT_GT(legacy->power.idle_watts, table1.idle_watts);
  EXPECT_GT(legacy->power.watts_at_20_vms, table1.watts_at_20_vms);
  EXPECT_FALSE(legacy->s3_capable);
}

// --- ParseFleetMix ----------------------------------------------------------

TEST(ParseFleetMixTest, ParsesTheWireFormat) {
  StatusOr<FleetMix> mix = ParseFleetMix("table1:10,legacy-no-s3:2,efficient-v2:4");
  ASSERT_TRUE(mix.ok()) << mix.status().ToString();
  ASSERT_EQ(mix->segments.size(), 3u);
  EXPECT_EQ(mix->segments[0].generation, "table1");
  EXPECT_EQ(mix->segments[0].count, 10);
  EXPECT_EQ(mix->segments[1].generation, "legacy-no-s3");
  EXPECT_EQ(mix->segments[1].count, 2);
  EXPECT_EQ(mix->segments[2].generation, "efficient-v2");
  EXPECT_EQ(mix->segments[2].count, 4);
  EXPECT_EQ(mix->CoveredHosts(), 16);
  EXPECT_TRUE(mix->Validate().ok());
}

TEST(ParseFleetMixTest, RejectsMalformedSpecs) {
  // Every rejection is an InvalidArgument, matching the exit-2 convention
  // the benches build on top of this parser.
  for (const char* bad :
       {"", "table1", "table1:", ":5", "table1:x", "table1:0", "table1:-3",
        "table1:10,,efficient-v2:4", "not-a-generation:5"}) {
    StatusOr<FleetMix> mix = ParseFleetMix(bad);
    EXPECT_FALSE(mix.ok()) << "accepted \"" << bad << "\"";
  }
}

// --- ClusterConfig resolution -----------------------------------------------

TEST(FleetResolutionTest, EmptyMixResolvesEveryHostToTheDefaultCurve) {
  ClusterConfig config;
  EXPECT_EQ(config.NumProfileClasses(), 1);
  for (HostId id = 0; id < static_cast<HostId>(config.TotalHosts()); ++id) {
    EXPECT_EQ(config.ProfileClassOf(id), 0);
  }
  HostProfile resolved = config.ResolvedProfile(0);
  ExpectSameCurve(resolved.power, config.host_power);
  EXPECT_TRUE(resolved.s3_capable);
  EXPECT_EQ(resolved.capacity_scale, 1.0);
}

TEST(FleetResolutionTest, SegmentsMapConsecutiveRangesAndTheTailIsClassZero) {
  ClusterConfig config;
  config.fleet.segments = {{"table1", 2}, {"legacy-no-s3", 3}};
  ASSERT_TRUE(config.Validate().ok());
  EXPECT_EQ(config.NumProfileClasses(), 3);
  EXPECT_EQ(config.ProfileClassOf(0), 1);
  EXPECT_EQ(config.ProfileClassOf(1), 1);
  EXPECT_EQ(config.ProfileClassOf(2), 2);
  EXPECT_EQ(config.ProfileClassOf(4), 2);
  // Hosts past the covered prefix fall back to the default generation.
  EXPECT_EQ(config.ProfileClassOf(5), 0);
  EXPECT_EQ(config.ProfileClassOf(config.TotalHosts() - 1), 0);

  EXPECT_FALSE(config.HostProfileFor(3).s3_capable);
  ExpectSameCurve(config.HostProfileFor(0).power,
                  FindHostGeneration("table1")->power);
  ExpectSameCurve(config.HostProfileFor(10).power, config.host_power);
}

TEST(FleetResolutionTest, SetVmsPerHomeRescalesCatalogGenerationsCoherently) {
  // Resizing the standard host must resize the whole fleet: catalog
  // generations pick up the compounded scale through fleet_power_scale,
  // using the exact Scaled() products.
  ClusterConfig config;
  config.fleet.segments = {{"efficient-v2", 4}};
  config.SetVmsPerHome(60);
  ExpectSameCurve(config.ResolvedProfile(1).power,
                  FindHostGeneration("efficient-v2")->power.Scaled(2.0));
}

TEST(FleetResolutionTest, ValidateRejectsUnknownGenerations) {
  ClusterConfig config;
  config.fleet.segments = {{"not-a-generation", 4}};
  EXPECT_FALSE(config.Validate().ok());
  config.fleet.segments = {{"table1", 0}};
  EXPECT_FALSE(config.Validate().ok());
}

// --- ClusterHost's authoritative copy ---------------------------------------

TEST(HeterogeneousHostTest, HostsCarryTheirOwnProfile) {
  ClusterConfig config;
  config.fleet.segments = {{"legacy-no-s3", 1}, {"efficient-v2", 1}};
  ASSERT_TRUE(config.Validate().ok());

  ClusterHost legacy(0, HostRole::kHome, config, true);
  EXPECT_FALSE(legacy.s3_capable());
  EXPECT_EQ(legacy.profile_class(), 1);
  ExpectSameCurve(legacy.power_profile(), FindHostGeneration("legacy-no-s3")->power);

  ClusterHost efficient(1, HostRole::kHome, config, true);
  EXPECT_TRUE(efficient.s3_capable());
  EXPECT_EQ(efficient.profile_class(), 2);
  EXPECT_EQ(efficient.capacity_bytes(),
            static_cast<uint64_t>(static_cast<double>(config.host_memory_bytes) * 1.25));

  ClusterHost tail(2, HostRole::kHome, config, true);
  EXPECT_EQ(tail.profile_class(), 0);
  ExpectSameCurve(tail.power_profile(), config.host_power);
}

TEST(HeterogeneousHostTest, NoS3HostStartsPoweredAndIgnoresSleepRequests) {
  ClusterConfig config;
  config.fleet.segments = {{"legacy-no-s3", 1}};
  ASSERT_TRUE(config.Validate().ok());
  // There is no sleeping state for this box to start the day in.
  ClusterHost host(0, HostRole::kHome, config, /*initially_powered=*/false);
  EXPECT_TRUE(host.IsPowered());
}

// --- the strict-mode contract -----------------------------------------------

TEST(NoS3DeathTest, StrictCheckerRejectsSuspendingAnIncapableHost) {
  // The planner and actuator both gate on s3_capable(); if any future caller
  // bypasses them and suspends a no-S3 box anyway, the invariant checker
  // must turn the run into a hard exit-2 — the same contract as every other
  // strict-mode violation.
  auto force_suspend = [] {
    {
      check::RunConfig strict;
      strict.check_mode = check::CheckMode::kStrict;
      check::RunScope scope(strict);
      ClusterConfig config;
      config.fleet.segments = {{"legacy-no-s3", 1}};
      Simulator sim;
      ClusterHost host(0, HostRole::kHome, config, true);
      host.RequestSleep(sim);
    }  // strict RunScope closes with a recorded violation -> exit 2
    std::exit(0);
  };
  EXPECT_EXIT(force_suspend(), ::testing::ExitedWithCode(2),
              "s3_on_incapable_host");
}

}  // namespace
}  // namespace oasis
