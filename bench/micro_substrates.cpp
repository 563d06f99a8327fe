// google-benchmark microbenchmarks of the substrates the simulations sit on:
// the LZ compressor (per page class), event queue, bitmaps, memory images,
// working-set sampling, trace generation and a whole cluster day.
//
// Like every bench main, this one opens the checker and observability
// scopes before Google Benchmark parses its flags, so a malformed OASIS_*
// knob exits 2 before any benchmark output.

#include <benchmark/benchmark.h>

#include "src/check/run_scope.h"
#include "src/cluster/manager.h"
#include "src/core/oasis.h"
#include "src/mem/compression.h"
#include "src/mem/memory_image.h"
#include "src/mem/page_content.h"
#include "src/mem/working_set.h"
#include "src/mem/working_set_kernel.h"
#include "src/obs/obs.h"
#include "src/sim/event_queue.h"
#include "src/trace/trace_generator.h"

namespace oasis {
namespace {

void BM_LzCompressPage(benchmark::State& state) {
  PageClass cls = static_cast<PageClass>(state.range(0));
  PageClassMix mix{0, 0, 0, 0};
  switch (cls) {
    case PageClass::kZero:
      mix.zero = 1.0;
      break;
    case PageClass::kText:
      mix.text = 1.0;
      break;
    case PageClass::kCode:
      mix.code = 1.0;
      break;
    case PageClass::kRandom:
      mix.random = 1.0;
      break;
  }
  PageContentGenerator gen(1, mix);
  PageBytes page = gen.Generate(0);
  size_t compressed = 0;
  for (auto _ : state) {
    compressed = LzCompress(page).size();
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kPageSize));
  state.SetLabel(std::string(PageClassName(cls)) + " ratio=" +
                 std::to_string(static_cast<double>(compressed) / kPageSize));
}
BENCHMARK(BM_LzCompressPage)->DenseRange(0, 3);

void BM_LzRoundTrip(benchmark::State& state) {
  PageContentGenerator gen(2);
  PageBytes page = gen.Generate(1);
  for (auto _ : state) {
    auto compressed = LzCompress(page);
    auto out = LzDecompress(compressed, page.size());
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kPageSize));
}
BENCHMARK(BM_LzRoundTrip);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    for (int i = 0; i < state.range(0); ++i) {
      q.Schedule(SimTime::Micros((i * 7919) % 100000), Event{0, static_cast<uint64_t>(i), 0});
    }
    while (!q.empty()) {
      q.Pop();
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

// The simulator's steady state: N events pending, and each dispatch peeks,
// pops one (as Simulator's run loop does) and schedules one a migration-like
// delay later. Every time lies on a 100 ms grid, so many pops tie with the
// one before (as on a rack-day).
void BM_EventQueueSteadyState(benchmark::State& state) {
  constexpr SimTime kDelays[] = {SimTime::Millis(3700), SimTime::Millis(7200),
                                 SimTime::Millis(10000)};
  EventQueue q;
  for (int i = 0; i < state.range(0); ++i) {
    q.Schedule(SimTime::Millis(100 * (i % 97)), Event{0, static_cast<uint64_t>(i), 0});
  }
  size_t next_delay = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.NextTime());
    EventQueue::Popped ev = q.Pop();
    q.Schedule(ev.time + kDelays[next_delay], ev.event);
    next_delay = next_delay == 2 ? 0 : next_delay + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(128)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BitmapCount(benchmark::State& state) {
  Bitmap bitmap(1u << 20);
  for (size_t i = 0; i < bitmap.size(); i += 3) {
    bitmap.Set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitmap.Count());
  }
}
BENCHMARK(BM_BitmapCount);

void BM_MemoryImageTouch(benchmark::State& state) {
  for (auto _ : state) {
    MemoryImage img(1 * kGiB, 3);
    img.TouchNewPages(static_cast<uint64_t>(state.range(0)));
    benchmark::DoNotOptimize(img.touched_pages());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MemoryImageTouch)->Arg(10000)->Arg(100000);

void BM_WorkingSetSample(benchmark::State& state) {
  WorkingSetSampler sampler(4 * kGiB, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample());
  }
}
BENCHMARK(BM_WorkingSetSample);

// The rejection loop the block sampler replaced, one libm Box-Muller deviate
// at a time: the reference for BM_WorkingSetSample.
void BM_WorkingSetSampleLibm(benchmark::State& state) {
  WorkingSetSampler sampler(4 * kGiB, 4);
  const working_set_kernel::Params params = WorkingSetSamplerPeer::params(sampler);
  Rng rng(4);
  for (auto _ : state) {
    double mib;
    do {
      mib = rng.NextGaussian(params.mu, params.sigma);
    } while (mib < params.floor_mib || mib > params.ceiling_mib);
    uint64_t bytes = MiBToBytes(mib);
    benchmark::DoNotOptimize((bytes + kPageSize - 1) / kPageSize * kPageSize);
  }
}
BENCHMARK(BM_WorkingSetSampleLibm);

// One in-situ refill per iteration (uniform draws, kernel, libm fallbacks and
// compaction) through kernel entry range(0); ns_per_pair is the cost of one
// Box-Muller pair.
void BM_WorkingSetRefill(benchmark::State& state) {
  const working_set_kernel::Entry& entry =
      working_set_kernel::Entries()[static_cast<size_t>(state.range(0))];
  state.SetLabel(entry.name);
  if (!entry.supported) {
    state.SkipWithError("the CPU cannot run this entry");
    return;
  }
  WorkingSetSampler sampler(4 * kGiB, 4);
  WorkingSetSamplerPeer::SetKernel(sampler, entry.fn);
  for (auto _ : state) {
    WorkingSetSamplerPeer::Refill(sampler);
    benchmark::DoNotOptimize(sampler.Sample());
  }
  state.counters["ns_per_pair"] = benchmark::Counter(
      static_cast<double>(state.iterations() * working_set_kernel::kBlockPairs),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_WorkingSetRefill)
    ->DenseRange(0, static_cast<int>(working_set_kernel::Entries().size()) - 1);

void BM_TraceGeneration(benchmark::State& state) {
  TraceGenerator gen(TraceGeneratorConfig{}, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.GenerateUserDay(DayKind::kWeekday));
  }
}
BENCHMARK(BM_TraceGeneration);

// The cluster day's run seed; main applies OASIS_SEED to it once.
uint64_t cluster_day_seed = SimulationConfig{}.seed;

// Args: homes, VMs per home. 36 x 110 is the datacenter rack, resized as
// datacenter_day sizes it; its homes' VM windows start off word boundaries.
void BM_ClusterDaySimulation(benchmark::State& state) {
  SimulationConfig config;
  config.cluster.num_home_hosts = static_cast<int>(state.range(0));
  config.cluster.num_consolidation_hosts = 4;
  config.cluster.SetVmsPerHome(static_cast<int>(state.range(1)));
  config.seed = cluster_day_seed;
  for (auto _ : state) {
    ClusterSimulation sim(config);
    benchmark::DoNotOptimize(sim.Run().metrics.TotalEnergy());
  }
  state.SetLabel(std::to_string(config.cluster.TotalVms()) + " VMs/day");
}
BENCHMARK(BM_ClusterDaySimulation)
    ->Args({10, 30})
    ->Args({30, 30})
    ->Args({36, 110})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace oasis

int main(int argc, char** argv) {
  oasis::check::RunScope run_scope;
  oasis::obs::ApplySeedOverride(&oasis::cluster_day_seed);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
