// Trace persistence: a line-oriented text format so trace sets can be saved,
// inspected, and replayed across runs.
//
// Format:
//   OASISTRACE v1 <num_users> <intervals_per_day> <weekday|weekend>
//   <one line per user: '0'/'1' chars, one per interval>
//
// A trace holds at least one user-day: WriteTrace refuses an empty set and
// ReadTrace rejects a user count that is not a positive integer, both with
// InvalidArgument, like every other malformed header or body.

#ifndef OASIS_SRC_TRACE_TRACE_IO_H_
#define OASIS_SRC_TRACE_TRACE_IO_H_

#include <iosfwd>
#include <string>

#include "src/common/status.h"
#include "src/trace/activity_trace.h"

namespace oasis {

struct TraceFile {
  DayKind kind = DayKind::kWeekday;
  TraceSet users;
};

Status WriteTrace(std::ostream& os, const TraceFile& trace);
StatusOr<TraceFile> ReadTrace(std::istream& is);

Status WriteTraceToPath(const std::string& path, const TraceFile& trace);
StatusOr<TraceFile> ReadTraceFromPath(const std::string& path);

}  // namespace oasis

#endif  // OASIS_SRC_TRACE_TRACE_IO_H_
