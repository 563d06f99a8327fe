// The knob table's contract, row by row: every malformed form of a row's
// kind exits 2 with one stderr line naming the knob, through both the
// generic reader and the entry point a binary reads that row through; valid
// values are accepted; an empty value counts as unset.
//
// The malformed int forms include the values that once slipped through
// hand-written parsers: OASIS_DC_RACKS=4294967297 (truncated to a 1-rack
// day) and 2147483648 (exit 1), OASIS_TRACE_CAPACITY and OASIS_SEED past
// 2^64 (clamped by strtol/strtoull), OASIS_SEED=-1 (wrapped), and
// OASIS_LOG_LEVEL=loud (a warning, then exit 0).

#include "src/common/knobs.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/check/check.h"
#include "src/check/run_scope.h"
#include "src/cluster/strategy.h"
#include "src/common/log.h"
#include "src/dc/topology.h"
#include "src/exp/exp.h"
#include "src/obs/obs.h"
#include "src/obs/prof.h"
#include "tests/test_env.h"

namespace oasis {
namespace knobs {
namespace {

using oasis::testing::EnvGuard;

// The entry point a binary reads each row through. Rows that only a bench
// main reads go through the generic reader of their kind.
void ReadThroughConsumer(Knob knob) {
  switch (knob) {
    case Knob::kTrace:
    case Knob::kMetrics:
    case Knob::kTraceCapacity:
    case Knob::kLogLevel:
    case Knob::kSeed:
    case Knob::kProf:
      obs::ObsConfig::FromEnv();
      return;
    case Knob::kCheck:
      check::RunConfig::FromEnv();
      return;
    case Knob::kJobs:
      exp::JobsFromEnv();
      return;
    case Knob::kPolicy: {
      ClusterConfig config;
      ApplyPolicyOverride(&config);
      return;
    }
    case Knob::kDcRacks: {
      dc::DatacenterConfig config;
      dc::ApplyDatacenterEnvOverrides(&config);
      return;
    }
    case Knob::kBenchRuns:
      BenchRuns();
      return;
    case Knob::kFuzzTrials:
      oasis::testing::FuzzTrials(10);
      return;
    case Knob::kFleet:
    case Knob::kCsvDir:
    case Knob::kBenchJson:
    case Knob::kBenchGitSha:
      String(knob);
      return;
    case Knob::kCount:
      break;
  }
  FAIL() << "no consumer for knob " << static_cast<int>(knob);
}

// A choice row's groups, each a list of spellings.
std::vector<std::vector<std::string>> Groups(const Row& row) {
  std::vector<std::vector<std::string>> groups(1);
  std::string spelling;
  for (const char* c = row.choices; *c != '\0'; ++c) {
    if (*c == '|' || *c == ',') {
      groups.back().push_back(spelling);
      spelling.clear();
      if (*c == ',') {
        groups.emplace_back();
        ++c;  // the space after the comma
      }
    } else {
      spelling += *c;
    }
  }
  groups.back().push_back(spelling);
  return groups;
}

std::vector<std::string> MalformedForms(const Row& row) {
  switch (row.kind) {
    case Kind::kInt: {
      std::vector<std::string> forms = {"abc", "3x", "-1", "99999999999999999999999"};
      if (row.min > 0) {
        forms.push_back(std::to_string(row.min - 1));
      }
      if (row.max < UINT64_MAX) {
        forms.push_back(std::to_string(row.max + 1));
      }
      if (row.max < 4294967297ULL) {
        forms.push_back("4294967297");  // 1 once truncated to 32 bits
      }
      return forms;
    }
    case Kind::kChoice:
      return {"loud", "stritc", "timeline", Groups(row)[0][0] + "x"};
    case Kind::kString:
    case Kind::kPath:
      break;
  }
  // Free-text rows are validated by the module that owns their values. A
  // retired strategy's name is as unknown as a made-up one.
  if (std::string(row.name) == "OASIS_POLICY") {
    return {"round-robin", "predictive"};
  }
  return {};
}

Knob KnobAt(size_t i) { return static_cast<Knob>(i); }

TEST(KnobsTest, RowsAreInKnobOrderAndNamed) {
  ASSERT_EQ(Rows().size(), static_cast<size_t>(Knob::kCount));
  for (size_t i = 0; i < Rows().size(); ++i) {
    const Row& row = Rows()[i];
    EXPECT_EQ(&Get(KnobAt(i)), &row);
    EXPECT_EQ(std::string(row.name).rfind("OASIS_", 0), 0u) << row.name;
    EXPECT_STRNE(row.doc, "") << row.name;
    EXPECT_STRNE(row.default_value, "") << row.name;
    EXPECT_EQ(row.kind == Kind::kChoice, row.choices != nullptr) << row.name;
  }
  // RunGolden.cmake passes these two through, so they must not reach stdout.
  EXPECT_FALSE(Get(Knob::kCheck).changes_stdout);
  EXPECT_FALSE(Get(Knob::kProf).changes_stdout);
}

TEST(KnobsDeathTest, EveryMalformedFormExitsTwo) {
  for (size_t i = 0; i < Rows().size(); ++i) {
    const Row& row = Rows()[i];
    for (const std::string& bad : MalformedForms(row)) {
      SCOPED_TRACE(std::string(row.name) + "=" + bad);
      EnvGuard env(row.name, bad.c_str());
      std::string message = std::string(row.name) + "=.*: expected ";
      if (std::string(row.name) == "OASIS_POLICY") {
        message += "a registered strategy \\(" + RegisteredStrategyNamesJoined() + "\\)";
      }
      if (row.kind == Kind::kInt) {
        EXPECT_EXIT(Int(KnobAt(i)), ::testing::ExitedWithCode(2), message);
      } else if (row.kind == Kind::kChoice) {
        EXPECT_EXIT(Choice(KnobAt(i)), ::testing::ExitedWithCode(2), message);
      }
      EXPECT_EXIT(ReadThroughConsumer(KnobAt(i)), ::testing::ExitedWithCode(2), message);
    }
  }
}

TEST(KnobsDeathTest, RejectPrintsTheOwnersAcceptedForm) {
  EXPECT_EXIT(Reject(Knob::kFleet, "mystery:3", "generation:count pairs"),
              ::testing::ExitedWithCode(2),
              "OASIS_FLEET=mystery:3: expected generation:count pairs\n");
}

TEST(KnobsTest, ValidValuesAreAccepted) {
  for (size_t i = 0; i < Rows().size(); ++i) {
    const Row& row = Rows()[i];
    SCOPED_TRACE(row.name);
    if (row.kind == Kind::kInt) {
      for (uint64_t value : {row.min, row.max}) {
        EnvGuard env(row.name, std::to_string(value).c_str());
        EXPECT_EQ(Int(KnobAt(i)), value);
      }
    } else if (row.kind == Kind::kChoice) {
      std::vector<std::vector<std::string>> groups = Groups(row);
      for (size_t g = 0; g < groups.size(); ++g) {
        for (std::string spelling : groups[g]) {
          EnvGuard env(row.name, spelling.c_str());
          EXPECT_EQ(Choice(KnobAt(i)), static_cast<int>(g)) << spelling;
          for (char& c : spelling) {
            c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
          }
          env.Set(spelling.c_str());
          EXPECT_EQ(Choice(KnobAt(i)), static_cast<int>(g)) << spelling;
        }
      }
    } else {
      EnvGuard env(row.name, "some/value");
      EXPECT_EQ(String(KnobAt(i), "fallback"), "some/value");
    }
  }
  EnvGuard seed("OASIS_SEED", "0x2A");
  EXPECT_EQ(Int(Knob::kSeed), 42u);
  seed.Set("052");
  EXPECT_EQ(Int(Knob::kSeed), 42u);
  EnvGuard policy("OASIS_POLICY", "first-fit-decreasing");
  ClusterConfig config;
  ApplyPolicyOverride(&config);
  EXPECT_EQ(config.strategy_name, "first-fit-decreasing");
}

TEST(KnobsTest, EmptyValueCountsAsUnset) {
  for (size_t i = 0; i < Rows().size(); ++i) {
    const Row& row = Rows()[i];
    SCOPED_TRACE(row.name);
    for (const char* unset : {static_cast<const char*>(nullptr), ""}) {
      EnvGuard env(row.name, unset);
      EXPECT_EQ(Int(KnobAt(i)), std::nullopt);
      EXPECT_EQ(Choice(KnobAt(i)), std::nullopt);
      EXPECT_EQ(String(KnobAt(i), "fallback"), "fallback");
      ReadThroughConsumer(KnobAt(i));
    }
  }
}

TEST(KnobsTest, ChoiceGroupsFollowTheReadersEnumOrder) {
  // Each reader casts the group index to its enum.
  std::vector<std::vector<std::string>> check_groups = Groups(Get(Knob::kCheck));
  for (size_t g = 0; g < check_groups.size(); ++g) {
    EXPECT_EQ(check_groups[g][0], check::CheckModeName(static_cast<check::CheckMode>(g)));
  }
  std::vector<std::vector<std::string>> prof_groups = Groups(Get(Knob::kProf));
  for (size_t g = 0; g < prof_groups.size(); ++g) {
    EXPECT_EQ(prof_groups[g][0], prof::ProfModeName(static_cast<prof::ProfMode>(g)));
  }
  const std::pair<const char*, LogLevel> levels[] = {
      {"debug", LogLevel::kDebug},  {"info", LogLevel::kInfo}, {"warning", LogLevel::kWarning},
      {"error", LogLevel::kError}, {"off", LogLevel::kOff},
  };
  for (const auto& [spelling, level] : levels) {
    EnvGuard env("OASIS_LOG_LEVEL", spelling);
    EXPECT_EQ(obs::ObsConfig::FromEnv().log_level, level) << spelling;
  }
}

}  // namespace
}  // namespace knobs
}  // namespace oasis
