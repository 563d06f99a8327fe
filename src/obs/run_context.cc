#include "src/obs/run_context.h"

#include "src/obs/prof.h"

namespace oasis {
namespace obs {
namespace {

thread_local RunContext* t_current = nullptr;

}  // namespace

RunContext::RunContext() : tracer_(Tracer::Global().capacity()) {
  tracer_.set_enabled(Tracer::Global().enabled());
  metrics_.set_enabled(MetricsRegistry::Global().enabled());
  // Construction cost shows up in the batch runner's setup phase.
  if (prof::Profiler::Enabled()) {
    prof::Profiler::Instance().AddCount(prof::Count::kRunContexts);
  }
}

void RunContext::MergeIntoGlobals(const std::string& metrics_prefix) {
  if (Tracer::Global().enabled()) {
    Tracer::Global().MergeFrom(tracer_);
  }
  if (MetricsRegistry::Global().enabled()) {
    MetricsRegistry::Global().MergeFrom(metrics_, metrics_prefix);
  }
}

RunContext* RunContext::Current() { return t_current; }

RunContext::Scope::Scope(RunContext* context) : previous_(t_current) {
  t_current = context;
}

RunContext::Scope::~Scope() { t_current = previous_; }

}  // namespace obs
}  // namespace oasis
