// Observability subsystem tests: span nesting and timing containment,
// zero-allocation guarantee for disabled tracing, counter / gauge /
// histogram aggregation and label identity, histogram percentile error
// and concurrent use, Chrome-trace and JSONL
// round-trips through a strict JSON parser, and the logging upgrades
// (pluggable sink, ISO-8601 line format, HWP_LOG_LEVEL parsing).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/logging.h"
#include "common/rng.h"
#include "obs/cli.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/minijson.h"

// Global allocation counter so the disabled-tracing test can assert the
// hot path performs no heap allocation. Counting is always on; it is a
// single relaxed atomic increment, negligible for the rest of the suite.
static std::atomic<long long> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hwp3d {
namespace {

using testing::JsonValue;
using testing::ParseJson;

// Each test owns the global tracer/registry for its duration.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Get().SetEnabled(false);
    obs::Tracer::Get().Clear();
    obs::MetricsRegistry::Get().Reset();
  }
  void TearDown() override {
    obs::Tracer::Get().SetEnabled(false);
    obs::Tracer::Get().Clear();
    obs::MetricsRegistry::Get().Reset();
  }
};

TEST_F(ObsTest, SpanNestingRecordsContainedIntervals) {
  obs::Tracer::Get().SetEnabled(true);
  {
    HWP_TRACE_SCOPE("outer");
    {
      HWP_TRACE_SCOPE("inner");
    }
  }
  const std::vector<obs::TraceEvent> events = obs::Tracer::Get().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded at scope exit, so the inner one lands first.
  const obs::TraceEvent& inner = events[0];
  const obs::TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.phase, 'X');
  EXPECT_EQ(outer.phase, 'X');
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
}

TEST_F(ObsTest, ScopeRenameAndArgsSurviveToSnapshot) {
  obs::Tracer::Get().SetEnabled(true);
  {
    obs::TraceScope span("generic");
    ASSERT_TRUE(span.active());
    span.SetName("sim/conv2a");
    span.AddArg("layer", "conv2a");
    span.AddArg("macs", static_cast<int64_t>(1234));
    span.AddArg("ratio", 0.5);
  }
  const auto events = obs::Tracer::Get().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "sim/conv2a");
  ASSERT_EQ(events[0].args.size(), 3u);
  EXPECT_EQ(events[0].args[0].key, "layer");
  EXPECT_FALSE(events[0].args[0].is_number);
  EXPECT_TRUE(events[0].args[1].is_number);
}

TEST_F(ObsTest, DisabledScopeAllocatesNothingAndRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.SetEnabled(false);
  const long long before = g_alloc_count.load();
  for (int i = 0; i < 1000; ++i) {
    HWP_TRACE_SCOPE("hot/loop");
  }
  {
    obs::TraceScope span("hot/args");
    EXPECT_FALSE(span.active());
    span.AddArg("k", static_cast<int64_t>(1));
    span.AddArg("v", 2.0);
  }
  const long long after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0) << "disabled TraceScope must not allocate";
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST_F(ObsTest, CounterAggregatesAndLabelsAreDistinct) {
  auto& reg = obs::MetricsRegistry::Get();
  obs::Counter& plain = reg.GetCounter("exec.blocks_skipped");
  plain.Add(3);
  plain.Add(4);
  EXPECT_EQ(plain.value(), 7);

  obs::Counter& a = reg.GetCounter("exec.blocks_skipped", {{"layer", "a"}});
  obs::Counter& b = reg.GetCounter("exec.blocks_skipped", {{"layer", "b"}});
  EXPECT_NE(&a, &b);
  a.Add(10);
  b.Add(20);
  // Label order must not matter for identity.
  obs::Counter& a2 = reg.GetCounter(
      "exec.blocks_skipped", {{"zz", "1"}, {"layer", "a"}});
  obs::Counter& a3 = reg.GetCounter(
      "exec.blocks_skipped", {{"layer", "a"}, {"zz", "1"}});
  EXPECT_EQ(&a2, &a3);
  a2.Add(5);

  EXPECT_EQ(reg.CounterTotal("exec.blocks_skipped"), 7 + 10 + 20 + 5);
  EXPECT_EQ(reg.CounterTotal("no.such.counter"), 0);
}

TEST_F(ObsTest, GaugeHoldsLastValue) {
  auto& reg = obs::MetricsRegistry::Get();
  obs::Gauge& g = reg.GetGauge("train.loss", {{"epoch", "0"}});
  g.Set(1.5);
  g.Set(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 0.25);
}

TEST_F(ObsTest, HistogramStatsAndBuckets) {
  auto& reg = obs::MetricsRegistry::Get();
  obs::Histogram& h = reg.GetHistogram("dse.candidate_cycles");
  h.Observe(1.0);
  h.Observe(2.0);
  h.Observe(9.0);
  const obs::Histogram::Stats s = h.stats();
  EXPECT_EQ(s.count, 3);
  EXPECT_DOUBLE_EQ(s.sum, 12.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  // 1 and 2 open octaves 0 and 1; 9 lies in octave 3, sub-bucket 4
  // ([9, 9.25)).
  const std::vector<int64_t> buckets = h.buckets();
  ASSERT_EQ(buckets.size(), static_cast<size_t>(obs::Histogram::kBuckets));
  constexpr int kSub = obs::Histogram::kSubBuckets;
  EXPECT_EQ(buckets[1], 1);
  EXPECT_EQ(buckets[1 + kSub], 1);
  EXPECT_EQ(buckets[1 + 3 * kSub + 4], 1);
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketUpperEdge(1 + 3 * kSub + 4), 9.25);
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketUpperEdge(0), 1.0);
}

// 1e5 observations in a fixed-size histogram: percentiles within the
// stated relative error of the exact sorted-sample percentiles.
TEST_F(ObsTest, HistogramPercentilesHaveBoundedErrorInConstantMemory) {
  // A fixed array of counters, no heap: memory cannot grow with the
  // number of observations.
  static_assert(sizeof(obs::Histogram) <= 16 * 1024);
  obs::Histogram hist;
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
  Rng rng(77);
  std::vector<double> exact;
  constexpr int kObservations = 100000;
  exact.reserve(kObservations);
  for (int i = 0; i < kObservations; ++i) {
    // Log-normal around ~1 ms with a long tail up to seconds.
    const double us = std::exp(rng.Normal(std::log(1000.0), 1.2)) + 1.0;
    exact.push_back(us);
    hist.Observe(us);
  }
  EXPECT_EQ(hist.stats().count, kObservations);
  std::sort(exact.begin(), exact.end());
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const double pos = q * static_cast<double>(exact.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, exact.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    const double want = exact[lo] * (1.0 - frac) + exact[hi] * frac;
    EXPECT_LE(std::abs(hist.Percentile(q) - want),
              obs::Histogram::kMaxRelativeError * want)
        << "q=" << q;
  }
}

// Serving lanes observe while Stats() and metric dumps read.
TEST_F(ObsTest, HistogramToleratesConcurrentObserveAndReads) {
  auto& reg = obs::MetricsRegistry::Get();
  obs::Histogram& h = reg.GetHistogram("serve.latency_us", {{"server", "0"}});
  constexpr int kWriters = 3;
  constexpr int kPerWriter = 5000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      const double p = h.Percentile(0.99);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1000.0 * (1.0 + obs::Histogram::kMaxRelativeError));
      for (const obs::MetricSnapshot& m : reg.Snapshot()) {
        EXPECT_LE(m.histogram.count, kWriters * kPerWriter);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&h, w] {
      for (int i = 0; i < kPerWriter; ++i) h.Observe(1.0 + (i + w) % 1000);
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true);
  reader.join();
  const obs::Histogram::Stats s = h.stats();
  EXPECT_EQ(s.count, kWriters * kPerWriter);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
}

TEST_F(ObsTest, MetricKindMismatchThrows) {
  auto& reg = obs::MetricsRegistry::Get();
  reg.GetCounter("metric.x");
  EXPECT_THROW(reg.GetGauge("metric.x"), Error);
  EXPECT_THROW(reg.GetHistogram("metric.x"), Error);
  // Same name with different labels is a different entry, same kind rule.
  reg.GetCounter("metric.x", {{"l", "1"}});
  EXPECT_THROW(reg.GetHistogram("metric.x", {{"l", "1"}}), Error);
}

TEST_F(ObsTest, ChromeTraceJsonRoundTrip) {
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.SetEnabled(true);
  {
    obs::TraceScope span("sim/conv\"quoted\"");
    span.AddArg("path", "a\\b\nc");
    span.AddArg("macs", static_cast<int64_t>(42));
  }
  tracer.Counter("train.loss", 0.125);
  tracer.Instant("checkpoint");

  const std::string json = tracer.ToChromeJson();
  const auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::Array);
  ASSERT_EQ(events->items.size(), 3u);

  const JsonValue& span = events->items[0];
  ASSERT_NE(span.Find("name"), nullptr);
  EXPECT_EQ(span.Find("name")->str, "sim/conv\"quoted\"");
  EXPECT_EQ(span.Find("ph")->str, "X");
  ASSERT_NE(span.Find("dur"), nullptr);
  EXPECT_GE(span.Find("dur")->number, 0.0);
  const JsonValue* args = span.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->Find("path")->str, "a\\b\nc");
  EXPECT_DOUBLE_EQ(args->Find("macs")->number, 42.0);

  const JsonValue& counter = events->items[1];
  EXPECT_EQ(counter.Find("ph")->str, "C");
  EXPECT_DOUBLE_EQ(counter.Find("args")->Find("value")->number, 0.125);
  EXPECT_EQ(events->items[2].Find("ph")->str, "i");
}

TEST_F(ObsTest, MetricsJsonlRoundTrip) {
  auto& reg = obs::MetricsRegistry::Get();
  reg.GetCounter("exec.blocks_skipped", {{"layer", "conv2a"}}).Add(17);
  reg.GetGauge("train.accuracy").Set(0.75);
  reg.GetHistogram("admm.primal_residual").Observe(3.0);

  const std::string jsonl = reg.ToJsonl();
  std::istringstream lines(jsonl);
  std::string line;
  int n = 0;
  bool saw_counter = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++n;
    const auto v = ParseJson(line);
    ASSERT_TRUE(v.has_value()) << line;
    ASSERT_NE(v->Find("type"), nullptr);
    ASSERT_NE(v->Find("name"), nullptr);
    if (v->Find("name")->str == "exec.blocks_skipped") {
      saw_counter = true;
      EXPECT_EQ(v->Find("type")->str, "counter");
      EXPECT_DOUBLE_EQ(v->Find("value")->number, 17.0);
      const JsonValue* labels = v->Find("labels");
      ASSERT_NE(labels, nullptr);
      EXPECT_EQ(labels->Find("layer")->str, "conv2a");
    }
  }
  EXPECT_EQ(n, 3);
  EXPECT_TRUE(saw_counter);
}

TEST_F(ObsTest, SummaryTableListsEveryMetric) {
  auto& reg = obs::MetricsRegistry::Get();
  reg.GetCounter("exec.runs").Add(2);
  reg.GetGauge("train.loss").Set(0.5);
  const std::string rendered = reg.SummaryTable().Render();
  EXPECT_NE(rendered.find("exec.runs"), std::string::npos);
  EXPECT_NE(rendered.find("train.loss"), std::string::npos);
}

TEST_F(ObsTest, CliFlagsAreExtractedAndArgvCompacted) {
  std::string a0 = "prog", a1 = "--trace-out", a2 = "t.json";
  std::string a3 = "--metrics-out=m.jsonl", a4 = "zcu102";
  char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data(), a4.data(),
                  nullptr};
  int argc = 5;
  const obs::CliOptions opts = obs::InitFromArgs(argc, argv);
  EXPECT_EQ(opts.trace_out, "t.json");
  EXPECT_EQ(opts.metrics_out, "m.jsonl");
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "zcu102");
  EXPECT_TRUE(obs::Tracer::Get().enabled());  // --trace-out enables tracing
}

TEST_F(ObsTest, JsonEscapeHandlesControlAndSpecialChars) {
  EXPECT_EQ(obs::JsonEscape("plain"), "plain");
  EXPECT_EQ(obs::JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::JsonEscape("nl\ntab\t"), "nl\\ntab\\t");
  EXPECT_EQ(obs::JsonEscape(std::string("\x01", 1)), "\\u0001");
}

// --- logging satellites ---------------------------------------------------

TEST(LoggingTest, ParseLogLevelAcceptsNamesAndNumbers) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::Debug);
  EXPECT_EQ(ParseLogLevel("INFO"), LogLevel::Info);
  EXPECT_EQ(ParseLogLevel("Warn"), LogLevel::Warning);
  EXPECT_EQ(ParseLogLevel("warning"), LogLevel::Warning);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::Error);
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::Off);
  EXPECT_EQ(ParseLogLevel("2"), LogLevel::Warning);
  EXPECT_EQ(ParseLogLevel("bogus"), std::nullopt);
}

TEST(LoggingTest, SinkCapturesFormattedLine) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  SetLogSink([&captured](LogLevel level, const std::string& line) {
    captured.emplace_back(level, line);
  });
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::Info);
  HWP_LOG(Warning) << "hello sink " << 42;
  SetLogLevel(prev);
  ResetLogSink();

  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].first, LogLevel::Warning);
  const std::string& line = captured[0].second;
  EXPECT_NE(line.find("hello sink 42"), std::string::npos);
  EXPECT_NE(line.find("WARN"), std::string::npos);
  EXPECT_NE(line.find("obs_test.cpp:"), std::string::npos);
  // ISO-8601 UTC timestamp: "[YYYY-MM-DDTHH:MM:SS.mmmZ ..."
  ASSERT_GE(line.size(), 25u);
  EXPECT_EQ(line[0], '[');
  EXPECT_EQ(line[11], 'T');
  EXPECT_EQ(line[24], 'Z');
  // Thread id token " t<N> ".
  EXPECT_NE(line.find(" t"), std::string::npos);
}

TEST(LoggingTest, SuppressedLevelsNeverReachSink) {
  int calls = 0;
  SetLogSink([&calls](LogLevel, const std::string&) { ++calls; });
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::Error);
  HWP_LOG(Info) << "should not appear";
  HWP_LOG(Warning) << "nor this";
  HWP_LOG(Error) << "this one does";
  SetLogLevel(prev);
  ResetLogSink();
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace hwp3d
