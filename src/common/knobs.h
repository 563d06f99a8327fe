// Every OASIS_* environment knob, declared once.
//
// One row per knob: its name, kind, accepted values, default, whether it can
// change a binary's stdout, and a one-line doc. Binaries read knobs only
// through the typed readers below, so a malformed value fails the same way
// everywhere: one stderr line naming the knob, the value and the accepted
// form, then exit status 2 (Reject). An empty value counts as unset.
//
//     OASIS_BENCH_RUNS=1 OASIS_CHECK=strict ./build/bench/fig08_energy_savings
//
// The golden harness (cmake/RunGolden.cmake) unsets every OASIS_* name except
// its own pins and the deliberate OASIS_CHECK / OASIS_PROF pass-throughs, so
// a row added here needs no harness change.

#ifndef OASIS_SRC_COMMON_KNOBS_H_
#define OASIS_SRC_COMMON_KNOBS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace oasis {
namespace knobs {

// Row order of the table; kRows in knobs.cc lists them in this order.
enum class Knob : int {
  kTrace,
  kMetrics,
  kTraceCapacity,
  kLogLevel,
  kSeed,
  kCheck,
  kProf,
  kJobs,
  kPolicy,
  kFleet,
  kDcRacks,
  kBenchRuns,
  kCsvDir,
  kBenchJson,
  kBenchGitSha,
  kFuzzTrials,
  kCount,
};

enum class Kind {
  kInt,     // an unsigned integer in [min, max]
  kChoice,  // one of `choices`, case-insensitive
  kString,  // free text; the owning module validates it and calls Reject
  kPath,    // a file or directory path
};

struct Row {
  const char* name;
  Kind kind;
  // kInt: inclusive bounds and the strtoull base (0 also takes 0x hex and 0
  // octal).
  uint64_t min = 0;
  uint64_t max = 0;
  int base = 10;
  // kChoice: groups separated by ", ", spellings within a group by '|'.
  // Choice() returns the group's index, which each reader casts to its enum.
  const char* choices = nullptr;
  const char* default_value = "";
  bool changes_stdout = false;
  const char* doc = "";
};

// The whole table, in Knob order.
std::span<const Row> Rows();
const Row& Get(Knob knob);

// The value of an int row, or nullopt when unset or empty.
std::optional<uint64_t> Int(Knob knob);
// The index of the matching group of a choice row, or nullopt when unset or
// empty.
std::optional<int> Choice(Knob knob);
// The value of a string or path row, or `fallback` when unset or empty.
std::string String(Knob knob, const char* fallback = "");

// Prints "<NAME>=<value>: expected <accepted>" to stderr and exits 2. Rows
// whose values another module owns (OASIS_POLICY, OASIS_FLEET) pass that
// module's description of the accepted form; the rest get one derived
// from the row.
[[noreturn]] void Reject(Knob knob, const std::string& value, const std::string& accepted = "");

}  // namespace knobs
}  // namespace oasis

#endif  // OASIS_SRC_COMMON_KNOBS_H_
