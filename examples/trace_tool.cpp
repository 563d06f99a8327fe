// Trace tooling: generate, inspect and convert the VDI activity traces the
// simulation consumes.
//
//   trace_tool gen  <path> <users> <weekday|weekend> [seed]   generate a trace
//   trace_tool stats <path>                                   summarize a trace
//
// A malformed trace file exits 2; a path that cannot be opened exits 1.
//
// The text format is stable (see src/trace/trace_io.h), so traces can be
// versioned, hand-edited, and replayed into vdi_farm_day.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/trace/trace_generator.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_stats.h"
#include "src/check/run_scope.h"
#include "src/obs/obs.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  trace_tool gen <path> <users> <weekday|weekend> [seed]\n"
               "  trace_tool stats <path>\n");
  return 2;
}

int Generate(int argc, char** argv) {
  using namespace oasis;
  if (argc < 5) {
    return Usage();
  }
  const char* path = argv[2];
  int users = std::atoi(argv[3]);
  if (users <= 0) {
    std::fprintf(stderr, "user count must be positive\n");
    return 2;
  }
  DayKind kind;
  if (std::strcmp(argv[4], "weekday") == 0) {
    kind = DayKind::kWeekday;
  } else if (std::strcmp(argv[4], "weekend") == 0) {
    kind = DayKind::kWeekend;
  } else {
    return Usage();
  }
  uint64_t seed = 42;
  if (argc > 5) {
    seed = std::strtoull(argv[5], nullptr, 10);  // explicit CLI seed wins
  } else {
    oasis::obs::ApplySeedOverride(&seed);
  }

  TraceGenerator generator(TraceGeneratorConfig{}, seed);
  TraceFile file{kind, generator.GenerateTraceSet(users, kind)};
  Status status = WriteTraceToPath(path, file);
  if (!status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %d %s user-days to %s (seed %llu)\n", users, DayKindName(kind), path,
              static_cast<unsigned long long>(seed));
  return 0;
}

int Stats(int argc, char** argv) {
  using namespace oasis;
  if (argc < 3) {
    return Usage();
  }
  StatusOr<TraceFile> file = ReadTraceFromPath(argv[2]);
  if (!file.ok()) {
    std::fprintf(stderr, "read failed: %s\n", file.status().ToString().c_str());
    // A malformed trace is bad input (exit 2); an unreadable path stays 1.
    return file.status().code() == StatusCode::kInvalidArgument ? 2 : 1;
  }
  const TraceSet& set = file->users;
  std::printf("%zu %s user-days\n", set.size(), DayKindName(file->kind));
  std::printf("  peak simultaneous activity : %.1f%% at %02.0f:%02.0f\n",
              PeakActiveFraction(set) * 100.0, HourOfInterval(PeakInterval(set)),
              60.0 * (HourOfInterval(PeakInterval(set)) -
                      static_cast<int>(HourOfInterval(PeakInterval(set)))));
  std::printf("  mean activity              : %.1f%%\n", MeanActiveFraction(set) * 100.0);
  std::printf("  all-idle fraction (30 VMs) : %.1f%%\n",
              MeanAllIdleFraction(set, 30) * 100.0);

  // A 24-bucket sparkline of the aggregate activity curve.
  std::vector<int> counts = ActiveCountSeries(set);
  std::printf("  hourly active users        :");
  for (int h = 0; h < 24; ++h) {
    int peak = 0;
    for (int i = h * 12; i < (h + 1) * 12; ++i) {
      peak = std::max(peak, counts[static_cast<size_t>(i)]);
    }
    std::printf(" %d", peak);
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  oasis::check::RunScope run_scope;
  if (argc < 2) {
    return Usage();
  }
  if (std::strcmp(argv[1], "gen") == 0) {
    return Generate(argc, argv);
  }
  if (std::strcmp(argv[1], "stats") == 0) {
    return Stats(argc, argv);
  }
  return Usage();
}
