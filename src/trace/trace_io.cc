#include "src/trace/trace_io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string>

namespace oasis {

Status WriteTrace(std::ostream& os, const TraceFile& trace) {
  if (trace.users.empty()) {
    return Status::InvalidArgument("a trace needs at least one user-day");
  }
  os << "OASISTRACE v1 " << trace.users.size() << " " << kIntervalsPerDay << " "
     << DayKindName(trace.kind) << "\n";
  for (const UserDay& day : trace.users) {
    std::string line;
    line.reserve(kIntervalsPerDay);
    for (int i = 0; i < kIntervalsPerDay; ++i) {
      line.push_back(day.IsActive(i) ? '1' : '0');
    }
    os << line << "\n";
  }
  if (!os) {
    return Status::Internal("trace write failed");
  }
  return Status::Ok();
}

StatusOr<TraceFile> ReadTrace(std::istream& is) {
  std::string magic;
  std::string version;
  std::string users_field;
  int intervals = 0;
  std::string kind_name;
  if (!(is >> magic >> version >> users_field >> intervals >> kind_name)) {
    return Status::InvalidArgument("malformed trace header");
  }
  if (magic != "OASISTRACE" || version != "v1") {
    return Status::InvalidArgument("not an OASISTRACE v1 file");
  }
  // The user count is a plain positive decimal: no sign, no suffix, and the
  // body must hold every line it promises (nothing is sized from it).
  size_t num_users = 0;
  const char* first = users_field.data();
  const char* last = first + users_field.size();
  auto [end, error] = std::from_chars(first, last, num_users);
  if (error != std::errc() || end != last || num_users == 0) {
    return Status::InvalidArgument("user count must be a positive integer, got '" +
                                   users_field + "'");
  }
  if (intervals != kIntervalsPerDay) {
    return Status::InvalidArgument("interval count mismatch: expected " +
                                   std::to_string(kIntervalsPerDay) + ", got " +
                                   std::to_string(intervals));
  }
  TraceFile out;
  if (kind_name == "weekday") {
    out.kind = DayKind::kWeekday;
  } else if (kind_name == "weekend") {
    out.kind = DayKind::kWeekend;
  } else {
    return Status::InvalidArgument("unknown day kind: " + kind_name);
  }
  std::string line;
  std::getline(is, line);  // consume end of header line
  for (size_t u = 0; u < num_users; ++u) {
    if (!std::getline(is, line)) {
      return Status::InvalidArgument("truncated trace: expected " + std::to_string(num_users) +
                                     " users, got " + std::to_string(u));
    }
    if (line.size() != static_cast<size_t>(kIntervalsPerDay)) {
      return Status::InvalidArgument("bad trace line length at user " + std::to_string(u));
    }
    UserDay day;
    for (int i = 0; i < kIntervalsPerDay; ++i) {
      char c = line[static_cast<size_t>(i)];
      if (c != '0' && c != '1') {
        return Status::InvalidArgument("bad trace character at user " + std::to_string(u));
      }
      day.SetActive(i, c == '1');
    }
    out.users.push_back(std::move(day));
  }
  return out;
}

Status WriteTraceToPath(const std::string& path, const TraceFile& trace) {
  std::ofstream os(path);
  if (!os) {
    return Status::Unavailable("cannot open for write: " + path);
  }
  return WriteTrace(os, trace);
}

StatusOr<TraceFile> ReadTraceFromPath(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    return Status::NotFound("cannot open: " + path);
  }
  return ReadTrace(is);
}

}  // namespace oasis
