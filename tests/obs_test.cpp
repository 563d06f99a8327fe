#include "src/obs/obs.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "bench/bench_util.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "tests/mini_json.h"

namespace oasis {
namespace obs {
namespace {

using oasis::testing::JsonParser;
using oasis::testing::JsonValue;

TEST(CounterTest, IncrementsAndReads) {
  MetricsRegistry reg;
  Counter* c = reg.counter("events");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  MetricsRegistry reg;
  Gauge* g = reg.gauge("depth");
  ASSERT_NE(g, nullptr);
  g->Set(5.0);
  g->Add(-2.0);
  EXPECT_DOUBLE_EQ(g->value(), 3.0);
}

TEST(HistogramTest, BasicStats) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(h->Percentile(50), 0.0);
  for (double v : {1.0, 2.0, 3.0, 4.0, 100.0}) {
    h->Record(v);
  }
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->sum(), 110.0);
  EXPECT_DOUBLE_EQ(h->mean(), 22.0);
  EXPECT_DOUBLE_EQ(h->min(), 1.0);
  EXPECT_DOUBLE_EQ(h->max(), 100.0);
}

TEST(HistogramTest, PercentilesWithinLogLinearError) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("latency");
  for (int i = 1; i <= 1000; ++i) {
    h->Record(static_cast<double>(i));
  }
  // 16 sub-buckets per power of two bounds relative error around 1/16.
  EXPECT_NEAR(h->Percentile(50), 500.0, 500.0 * 0.07);
  EXPECT_NEAR(h->Percentile(90), 900.0, 900.0 * 0.07);
  EXPECT_NEAR(h->Percentile(99), 990.0, 990.0 * 0.07);
  // Extremes clamp to exact observed bounds.
  EXPECT_DOUBLE_EQ(h->Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h->Percentile(100), 1000.0);
}

TEST(HistogramTest, NonPositiveValuesLandInUnderflowBucket) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("deltas");
  h->Record(0.0);
  h->Record(-5.0);
  h->Record(10.0);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->min(), -5.0);
  EXPECT_DOUBLE_EQ(h->max(), 10.0);
  EXPECT_LE(h->Percentile(10), 0.0);
}

TEST(MetricsRegistryTest, SameNameReturnsSamePointerAndKindMismatchIsNull) {
  MetricsRegistry reg;
  Counter* c1 = reg.counter("x");
  Counter* c2 = reg.counter("x");
  EXPECT_EQ(c1, c2);
  // "x" is already a counter: asking for another kind fails.
  EXPECT_EQ(reg.gauge("x"), nullptr);
  EXPECT_EQ(reg.histogram("x"), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistryTest, ResetValuesKeepsInstruments) {
  MetricsRegistry reg;
  Counter* c = reg.counter("n");
  Gauge* g = reg.gauge("g");
  Histogram* h = reg.histogram("h");
  c->Increment(7);
  g->Set(3.5);
  h->Record(1.0);
  reg.ResetValues();
  // Cached pointers stay valid and read zero.
  EXPECT_EQ(c->value(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistryTest, CsvExportIsSortedAndParsable) {
  MetricsRegistry reg;
  reg.counter("b.count")->Increment(2);
  reg.gauge("a.depth")->Set(4.0);
  reg.histogram("c.lat")->Record(10.0);
  std::ostringstream out;
  reg.WriteCsv(out);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "name,kind,count,value,min,p50,p90,p99,max");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("a.depth,gauge,", 0), 0u);
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("b.count,counter,2,", 0), 0u);
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("c.lat,histogram,1,", 0), 0u);
}

TEST(MetricsRegistryTest, DisabledGateReturnsNull) {
  MetricsRegistry::Global().set_enabled(false);
  EXPECT_EQ(MetricsRegistry::IfEnabled(), nullptr);
  MetricsRegistry::Global().set_enabled(true);
  EXPECT_EQ(MetricsRegistry::IfEnabled(), &MetricsRegistry::Global());
  MetricsRegistry::Global().set_enabled(false);
}

TEST(TracerTest, DisabledRecordingIsANoOp) {
  Tracer tracer(8);
  ASSERT_FALSE(tracer.enabled());
  tracer.Complete("cat", "span", SimTime::Seconds(1), SimTime::Seconds(2));
  tracer.Instant("cat", "evt", SimTime::Seconds(1));
  tracer.CounterValue("cat", "n", SimTime::Seconds(1), 5);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.total_recorded(), 0u);
}

TEST(TracerTest, RecordsEventsWithSimTimestamps) {
  Tracer tracer(8);
  tracer.set_enabled(true);
  tracer.Complete("cat", "span", SimTime::Seconds(1.0), SimTime::Seconds(2.5),
                  TraceArgs{3, 7, 4096});
  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, TracePhase::kComplete);
  EXPECT_EQ(events[0].ts_us, 1000000);
  EXPECT_EQ(events[0].dur_us, 1500000);
  EXPECT_EQ(events[0].args.host, 3);
  EXPECT_EQ(events[0].args.vm, 7);
  EXPECT_EQ(events[0].args.bytes, 4096);
}

TEST(TracerTest, RingDropsOldestKeepsNewest) {
  Tracer tracer(4);
  tracer.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    tracer.Instant("cat", "evt", SimTime::Micros(i));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.total_recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first among the survivors: 6, 7, 8, 9.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].ts_us, 6 + i);
  }
}

TEST(TracerTest, ClearAndSetCapacityReset) {
  Tracer tracer(4);
  tracer.set_enabled(true);
  tracer.Instant("cat", "evt", SimTime::Zero());
  tracer.SetCapacity(16);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.capacity(), 16u);
  tracer.Instant("cat", "evt", SimTime::Zero());
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, ChromeJsonParsesBackWithNestingPair) {
  Tracer tracer(64);
  tracer.set_enabled(true);
  tracer.Begin("ctrl", "outer", SimTime::Seconds(1), TraceArgs{2, -1, -1});
  tracer.Complete("ctrl", "inner", SimTime::Seconds(1.2), SimTime::Seconds(1.4),
                  TraceArgs{2, 11, 512});
  tracer.End("ctrl", "outer", SimTime::Seconds(2), TraceArgs{2, -1, -1});
  tracer.Instant("power", "sleeping", SimTime::Seconds(3));
  tracer.CounterValue("sim", "queue_depth", SimTime::Seconds(3), 42);

  std::ostringstream out;
  tracer.ExportChromeJson(out);
  JsonValue root;
  ASSERT_TRUE(JsonParser::Parse(out.str(), &root)) << out.str();
  ASSERT_TRUE(root.is_object());
  ASSERT_TRUE(root.has("traceEvents"));
  const JsonValue& events = root.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  // 5 recorded + 1 process_name metadata event.
  ASSERT_EQ(events.array.size(), 6u);

  int begins = 0, ends = 0, completes = 0, instants = 0, counters = 0;
  for (const JsonValue& e : events.array) {
    ASSERT_TRUE(e.is_object());
    const std::string& ph = e.at("ph").str;
    if (ph == "B") {
      ++begins;
      EXPECT_EQ(e.at("name").str, "outer");
      // host 2 renders as tid 3 (tid 0 is reserved for host-less events).
      EXPECT_EQ(e.at("tid").number, 3.0);
    } else if (ph == "E") {
      ++ends;
    } else if (ph == "X") {
      ++completes;
      EXPECT_EQ(e.at("name").str, "inner");
      EXPECT_EQ(e.at("dur").number, 200000.0);
      EXPECT_EQ(e.at("args").at("vm").number, 11.0);
      EXPECT_EQ(e.at("args").at("bytes").number, 512.0);
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "C") {
      ++counters;
      EXPECT_EQ(e.at("args").at("value").number, 42.0);
    }
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
  EXPECT_EQ(completes, 1);
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(counters, 1);
}

TEST(TracerTest, JsonlEmitsOneValidObjectPerLine) {
  Tracer tracer(8);
  tracer.set_enabled(true);
  tracer.Instant("a", "one", SimTime::Micros(1));
  tracer.Instant("a", "two", SimTime::Micros(2));
  std::ostringstream out;
  tracer.ExportJsonl(out);
  std::istringstream in(out.str());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    JsonValue v;
    ASSERT_TRUE(JsonParser::Parse(line, &v)) << line;
    EXPECT_TRUE(v.is_object());
    ++lines;
  }
  EXPECT_EQ(lines, 2);
}

TEST(TracerTest, GlobalGateReturnsNullWhenDisabled) {
  Tracer::Global().set_enabled(false);
  EXPECT_EQ(Tracer::IfEnabled(), nullptr);
  Tracer::Global().set_enabled(true);
  EXPECT_EQ(Tracer::IfEnabled(), &Tracer::Global());
  Tracer::Global().set_enabled(false);
}

TEST(ObsConfigTest, FromEnvReadsAllKnobs) {
  ::setenv("OASIS_TRACE", "/tmp/t.jsonl", 1);
  ::setenv("OASIS_METRICS", "/tmp/m.csv", 1);
  ::setenv("OASIS_TRACE_CAPACITY", "128", 1);
  ::setenv("OASIS_LOG_LEVEL", "debug", 1);
  ObsConfig config = ObsConfig::FromEnv();
  EXPECT_TRUE(config.TracingRequested());
  EXPECT_TRUE(config.TraceIsJsonl());
  EXPECT_TRUE(config.MetricsRequested());
  EXPECT_EQ(config.trace_capacity, 128u);
  EXPECT_EQ(config.log_level, LogLevel::kDebug);
  ::unsetenv("OASIS_TRACE");
  ::unsetenv("OASIS_METRICS");
  ::unsetenv("OASIS_TRACE_CAPACITY");
  ::unsetenv("OASIS_LOG_LEVEL");
  ObsConfig off = ObsConfig::FromEnv();
  EXPECT_FALSE(off.TracingRequested());
  EXPECT_FALSE(off.MetricsRequested());
  EXPECT_FALSE(off.log_level.has_value());
}

TEST(ObsConfigTest, SeedAcceptsIntegersAndEmptyMeansUnset) {
  ::setenv("OASIS_SEED", "0x2A", 1);
  ObsConfig hex = ObsConfig::FromEnv();
  EXPECT_TRUE(hex.has_seed);
  EXPECT_EQ(hex.seed, 42u);
  ::setenv("OASIS_SEED", "", 1);
  EXPECT_FALSE(ObsConfig::FromEnv().has_seed);
  ::unsetenv("OASIS_SEED");
  EXPECT_FALSE(ObsConfig::FromEnv().has_seed);
}

TEST(BenchRunsTest, OverrideAndDefault) {
  ::setenv("OASIS_BENCH_RUNS", "3", 1);
  EXPECT_EQ(BenchRuns(), 3);
  ::setenv("OASIS_BENCH_RUNS", "", 1);
  EXPECT_EQ(BenchRuns(), 5);
  ::unsetenv("OASIS_BENCH_RUNS");
  EXPECT_EQ(BenchRuns(), 5);
}

}  // namespace
}  // namespace obs
}  // namespace oasis
