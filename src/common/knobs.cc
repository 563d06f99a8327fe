#include "src/common/knobs.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string_view>

namespace oasis {
namespace knobs {
namespace {

constexpr uint64_t kIntMax = INT_MAX;

// Order must match enum Knob.
constexpr Row kRows[] = {
    {.name = "OASIS_TRACE",
     .kind = Kind::kPath,
     .default_value = "unset (tracing off)",
     .doc = "sim-time trace file; a .jsonl suffix selects JSONL, anything else Chrome "
            "trace_event JSON"},
    {.name = "OASIS_METRICS",
     .kind = Kind::kPath,
     .default_value = "unset (metrics off)",
     .doc = "metrics CSV snapshot written at exit"},
    {.name = "OASIS_TRACE_CAPACITY",
     .kind = Kind::kInt,
     .min = 1,
     .max = LLONG_MAX,
     .default_value = "65536",
     .doc = "trace ring size in events; the oldest are dropped"},
    {.name = "OASIS_LOG_LEVEL",
     .kind = Kind::kChoice,
     .choices = "debug|d, info|i, warning|warn|w, error|e, off",
     .default_value = "warning",
     .doc = "stderr log verbosity"},
    {.name = "OASIS_SEED",
     .kind = Kind::kInt,
     .min = 0,
     .max = UINT64_MAX,
     .base = 0,
     .default_value = "the binary's pinned seed",
     .changes_stdout = true,
     .doc = "simulation seed override for every bench and example"},
    {.name = "OASIS_CHECK",
     .kind = Kind::kChoice,
     .choices = "off|0, warn|on|1, strict|2",
     .default_value = "off",
     .doc = "runtime invariant checker; strict exits 2 if any invariant fired"},
    {.name = "OASIS_PROF",
     .kind = Kind::kChoice,
     .choices = "off|0, summary|on|1",
     .default_value = "off",
     .doc = "wall-clock profiler; summary prints the phase report to stderr"},
    {.name = "OASIS_JOBS",
     .kind = Kind::kInt,
     .min = 1,
     .max = kIntMax,
     .default_value = "hardware cores",
     .doc = "batch-runner workers; output is byte-identical at any count"},
    {.name = "OASIS_POLICY",
     .kind = Kind::kString,
     .default_value = "oasis-greedy",
     .changes_stdout = true,
     .doc = "consolidation strategy, by registry name"},
    {.name = "OASIS_FLEET",
     .kind = Kind::kString,
     .default_value = "table1:10,legacy-no-s3:10,efficient-v2:14",
     .changes_stdout = true,
     .doc = "heterogeneous_fleet host mix: generation:count pairs joined by commas"},
    {.name = "OASIS_DC_RACKS",
     .kind = Kind::kInt,
     .min = 1,
     .max = kIntMax,
     .default_value = "256",
     .changes_stdout = true,
     .doc = "datacenter rack count; a smaller grid is a prefix of the full one"},
    {.name = "OASIS_BENCH_RUNS",
     .kind = Kind::kInt,
     .min = 1,
     .max = kIntMax,
     .default_value = "5",
     .changes_stdout = true,
     .doc = "repetitions per bench datapoint"},
    {.name = "OASIS_CSV_DIR",
     .kind = Kind::kPath,
     .default_value = "unset (no CSV)",
     .doc = "directory the figure benches also write their data series to"},
    {.name = "OASIS_BENCH_JSON",
     .kind = Kind::kPath,
     .default_value = "perf_sweep: BENCH_sweep.json; ablation_policy: no splice",
     .doc = "perf_sweep's JSON record, which ablation_policy extends with policy gaps"},
    {.name = "OASIS_BENCH_GIT_SHA",
     .kind = Kind::kString,
     .default_value = "unknown",
     .doc = "revision stamp perf_sweep writes into its JSON record"},
    {.name = "OASIS_FUZZ_TRIALS",
     .kind = Kind::kInt,
     .min = 1,
     .max = kIntMax,
     .default_value = "each loop's own count",
     .doc = "caps the iterations of every test fuzz loop"},
};
static_assert(std::size(kRows) == static_cast<size_t>(Knob::kCount));

// The value of `knob`, or nullptr when unset or empty.
const char* Lookup(Knob knob) {
  const char* value = std::getenv(Get(knob).name);
  return value != nullptr && *value != '\0' ? value : nullptr;
}

bool EqualsIgnoringCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

// The accepted form of a row, as Reject prints it.
std::string Accepted(const Row& row) {
  switch (row.kind) {
    case Kind::kInt:
      return "an integer in [" + std::to_string(row.min) + ", " + std::to_string(row.max) +
             "]" + (row.base == 0 ? " (decimal, 0x hex or 0 octal)" : "");
    case Kind::kChoice:
      return std::string("one of ") + row.choices;
    case Kind::kString:
    case Kind::kPath:
      break;
  }
  return row.doc;
}

}  // namespace

std::span<const Row> Rows() { return kRows; }

const Row& Get(Knob knob) { return kRows[static_cast<int>(knob)]; }

std::optional<uint64_t> Int(Knob knob) {
  const char* value = Lookup(knob);
  if (value == nullptr) {
    return std::nullopt;
  }
  const Row& row = Get(knob);
  // strtoull would negate a signed value into a huge one.
  if (std::strchr(value, '-') != nullptr) {
    Reject(knob, value);
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long parsed = std::strtoull(value, &end, row.base);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < row.min ||
      parsed > row.max) {
    Reject(knob, value);
  }
  return static_cast<uint64_t>(parsed);
}

std::optional<int> Choice(Knob knob) {
  const char* value = Lookup(knob);
  if (value == nullptr) {
    return std::nullopt;
  }
  std::string_view choices = Get(knob).choices;
  int group = 0;
  size_t pos = 0;
  while (pos <= choices.size()) {
    size_t stop = std::min(choices.find_first_of("|,", pos), choices.size());
    if (EqualsIgnoringCase(choices.substr(pos, stop - pos), value)) {
      return group;
    }
    if (stop < choices.size() && choices[stop] == ',') {
      ++group;
      ++stop;  // the space after the comma
    }
    pos = stop + 1;
  }
  Reject(knob, value);
}

std::string String(Knob knob, const char* fallback) {
  const char* value = Lookup(knob);
  return value != nullptr ? value : fallback;
}

void Reject(Knob knob, const std::string& value, const std::string& accepted) {
  const Row& row = Get(knob);
  std::fprintf(stderr, "%s=%s: expected %s\n", row.name, value.c_str(),
               accepted.empty() ? Accepted(row).c_str() : accepted.c_str());
  std::exit(2);
}

}  // namespace knobs
}  // namespace oasis
