#include "src/obs/trace.h"

#include <cstdio>
#include <fstream>

#include "src/obs/run_context.h"

namespace oasis {
namespace obs {
namespace {

// Categories/names are literals under our control, but escape defensively so
// the export is valid JSON no matter what an instrumentation site passes.
void WriteJsonString(std::ostream& out, const char* s) {
  out << '"';
  for (; *s; ++s) {
    char c = *s;
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

Tracer::Tracer(size_t capacity) : capacity_(capacity ? capacity : 1) {}

void Tracer::Clear() {
  total_ = 0;
  merged_dropped_ = 0;
  ring_.clear();
  ring_.shrink_to_fit();
}

void Tracer::SetCapacity(size_t capacity) {
  capacity_ = capacity ? capacity : 1;
  Clear();
}

void Tracer::Push(const TraceEvent& event) {
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[total_ % capacity_] = event;
  }
  ++total_;
}

void Tracer::Complete(const char* category, const char* name, SimTime start, SimTime end,
                      TraceArgs args) {
  if (!enabled()) {
    return;
  }
  TraceEvent e;
  e.phase = TracePhase::kComplete;
  e.category = category;
  e.name = name;
  e.ts_us = start.micros();
  e.dur_us = (end - start).micros();
  e.args = args;
  Push(e);
}

void Tracer::Begin(const char* category, const char* name, SimTime at, TraceArgs args) {
  if (!enabled()) {
    return;
  }
  Push(TraceEvent{TracePhase::kBegin, category, name, at.micros(), 0, 0, args});
}

void Tracer::End(const char* category, const char* name, SimTime at, TraceArgs args) {
  if (!enabled()) {
    return;
  }
  Push(TraceEvent{TracePhase::kEnd, category, name, at.micros(), 0, 0, args});
}

void Tracer::Instant(const char* category, const char* name, SimTime at, TraceArgs args) {
  if (!enabled()) {
    return;
  }
  Push(TraceEvent{TracePhase::kInstant, category, name, at.micros(), 0, 0, args});
}

void Tracer::CounterValue(const char* category, const char* name, SimTime at, int64_t value) {
  if (!enabled()) {
    return;
  }
  Push(TraceEvent{TracePhase::kCounter, category, name, at.micros(), 0, value, TraceArgs{}});
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> out;
  size_t n = size();
  out.reserve(n);
  // Oldest retained event first.
  uint64_t first = total_ - n;
  for (uint64_t i = first; i < total_; ++i) {
    out.push_back(ring_[i % capacity_]);
  }
  return out;
}

void Tracer::WriteEventJson(std::ostream& out, const TraceEvent& event) const {
  // Spans of a host render on that host's track; everything else shares
  // track 0. One process ("oasis-sim") holds all tracks.
  int64_t tid = event.args.host >= 0 ? event.args.host + 1 : 0;
  out << "{\"ph\":\"" << static_cast<char>(event.phase) << "\",\"cat\":";
  WriteJsonString(out, event.category);
  out << ",\"name\":";
  WriteJsonString(out, event.name);
  out << ",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << event.ts_us;
  if (event.phase == TracePhase::kComplete) {
    out << ",\"dur\":" << event.dur_us;
  }
  if (event.phase == TracePhase::kInstant) {
    out << ",\"s\":\"t\"";  // thread-scoped instant
  }
  out << ",\"args\":{";
  bool first = true;
  auto arg = [&](const char* key, int64_t value) {
    if (!first) {
      out << ',';
    }
    first = false;
    out << '"' << key << "\":" << value;
  };
  if (event.phase == TracePhase::kCounter) {
    arg("value", event.value);
  }
  if (event.args.host >= 0) {
    arg("host", event.args.host);
  }
  if (event.args.vm >= 0) {
    arg("vm", event.args.vm);
  }
  if (event.args.bytes >= 0) {
    arg("bytes", event.args.bytes);
  }
  out << "}}";
}

void Tracer::ExportChromeJson(std::ostream& out) const {
  std::vector<TraceEvent> events = Events();
  out << "{\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":"
         "\"oasis-sim\"}}";
  for (const TraceEvent& event : events) {
    out << ",\n";
    WriteEventJson(out, event);
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void Tracer::ExportJsonl(std::ostream& out) const {
  for (const TraceEvent& event : Events()) {
    WriteEventJson(out, event);
    out << '\n';
  }
}

Status Tracer::ExportChromeJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open trace file: " + path);
  }
  ExportChromeJson(out);
  return Status::Ok();
}

Status Tracer::ExportJsonlFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open trace file: " + path);
  }
  ExportJsonl(out);
  return Status::Ok();
}

void Tracer::MergeFrom(const Tracer& other) {
  merged_dropped_ += other.dropped();
  for (const TraceEvent& event : other.Events()) {
    Push(event);
  }
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // never destroyed
  return *tracer;
}

Tracer* Tracer::IfEnabled() {
  if (RunContext* context = RunContext::Current()) {
    Tracer& local = context->tracer();
    return local.enabled() ? &local : nullptr;
  }
  Tracer& global = Global();
  return global.enabled() ? &global : nullptr;
}

}  // namespace obs
}  // namespace oasis
