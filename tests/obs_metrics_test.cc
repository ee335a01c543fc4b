#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "src/obs/quantile_histogram.h"

namespace deltaclus::obs {
namespace {

// The enabled flag is process-global; every test restores the disabled
// default so ordering cannot leak between tests (or into other suites).
class MetricsTest : public ::testing::Test {
 protected:
  void TearDown() override { MetricsRegistry::SetEnabled(false); }
};

TEST_F(MetricsTest, DisabledMutationsAreNoOps) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  Gauge* g = registry.GetGauge("test.gauge");
  QuantileHistogram* q =
      registry.GetQuantileHistogram("test.latency", LatencySecondsOptions());
  MetricsRegistry::SetEnabled(false);
  c->Inc();
  g->Set(5.0);
  q->Observe(1.5);
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(q->Count(), 0u);
}

TEST_F(MetricsTest, CounterAccumulatesWhenEnabled) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  MetricsRegistry::SetEnabled(true);
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->Value(), 42u);
  c->Reset();
  EXPECT_EQ(c->Value(), 0u);
}

TEST_F(MetricsTest, GaugeKeepsLastWrite) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("test.gauge");
  MetricsRegistry::SetEnabled(true);
  g->Set(1.5);
  g->Set(-2.5);
  EXPECT_EQ(g->Value(), -2.5);
}

TEST_F(MetricsTest, HistogramBucketsByUpperBound) {
  // A registered quantile histogram buckets [min_value, max_value] with
  // both ends inclusive; values past either end land in the underflow
  // and overflow cells and still count toward count and sum.
  MetricsRegistry registry;
  QuantileHistogramOptions options;
  options.min_value = 0.1;
  options.max_value = 10.0;
  options.relative_error = 0.01;
  QuantileHistogram* q = registry.GetQuantileHistogram("test.hist", options);
  MetricsRegistry::SetEnabled(true);
  q->Observe(0.05);   // underflow (< min_value)
  q->Observe(0.1);    // first bucket (inclusive lower bound)
  q->Observe(10.0);   // last bucket (inclusive upper bound)
  q->Observe(100.0);  // overflow
  QuantileHistogramSnapshot snap = q->Snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 110.15);
  EXPECT_EQ(snap.underflow, 1u);
  EXPECT_EQ(snap.overflow, 1u);
  ASSERT_EQ(snap.buckets.size(), q->num_buckets());
  ASSERT_GE(snap.buckets.size(), 2u);
  EXPECT_EQ(snap.buckets.front(), 1u);
  uint64_t in_range = 0;
  for (uint64_t b : snap.buckets) in_range += b;
  EXPECT_EQ(in_range, 2u);
  // Ranks 2 and 3 are the two bounds themselves, read back in range
  // (relative_error plus floating-point headroom).
  double tolerance = options.relative_error + 1e-9;
  EXPECT_NEAR(snap.ValueAtQuantile(0.5), 0.1, 0.1 * tolerance);
  EXPECT_NEAR(snap.ValueAtQuantile(0.75), 10.0, 10.0 * tolerance);
}

TEST_F(MetricsTest, RegistrationReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("stable");
  // Force vector growth with many registrations.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler." + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("stable"), first);
}

TEST_F(MetricsTest, ConcurrentIncrementsAreLockFreeAndExact) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.concurrent");
  MetricsRegistry::SetEnabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Inc();
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, ResetAllZeroesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  Gauge* g = registry.GetGauge("test.gauge");
  QuantileHistogram* q =
      registry.GetQuantileHistogram("test.latency", LatencySecondsOptions());
  MetricsRegistry::SetEnabled(true);
  c->Inc(3);
  g->Set(9.0);
  q->Observe(0.5);
  registry.ResetAll();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(q->Count(), 0u);
  EXPECT_EQ(registry.GetCounter("test.counter"), c);
}

TEST_F(MetricsTest, JsonSnapshotHasSortedSections) {
  MetricsRegistry registry;
  MetricsRegistry::SetEnabled(true);
  registry.GetCounter("z.second")->Inc(2);
  registry.GetCounter("a.first")->Inc(1);
  registry.GetGauge("z.gauge")->Set(2.5);
  registry.GetGauge("a.gauge")->Set(1.5);
  std::string json = registry.SnapshotJson();
  EXPECT_EQ(json,
            "{\"counters\":{\"a.first\":1,\"z.second\":2},"
            "\"gauges\":{\"a.gauge\":1.5,\"z.gauge\":2.5}}\n");
  // Quantile histograms follow in their own section, also name-sorted.
  registry.GetQuantileHistogram("z.latency", LatencySecondsOptions());
  registry.GetQuantileHistogram("a.latency", LatencySecondsOptions());
  json = registry.SnapshotJson();
  size_t section = json.find("\"quantile_histograms\":{\"a.latency\":");
  ASSERT_NE(section, std::string::npos);
  EXPECT_NE(json.find("\"z.latency\":", section), std::string::npos);
}

TEST_F(MetricsTest, HistogramRejectsNonFiniteObservations) {
  // Non-finite values count as invalid and touch neither the cells nor
  // the running sum, so one NaN cannot poison a run's exported latency.
  MetricsRegistry registry;
  QuantileHistogram* q =
      registry.GetQuantileHistogram("test.hist", LatencySecondsOptions());
  MetricsRegistry::SetEnabled(true);
  q->Observe(std::numeric_limits<double>::quiet_NaN());
  q->Observe(std::numeric_limits<double>::infinity());
  q->Observe(-std::numeric_limits<double>::infinity());
  q->Observe(0.5);
  EXPECT_EQ(q->Count(), 1u);
  EXPECT_DOUBLE_EQ(q->Sum(), 0.5);
  EXPECT_EQ(q->InvalidCount(), 3u);
  QuantileHistogramSnapshot snap = q->Snapshot();
  EXPECT_EQ(snap.underflow, 0u);
  EXPECT_EQ(snap.overflow, 0u);  // +Inf must not hit the overflow cell
  EXPECT_EQ(snap.invalid, 3u);
  EXPECT_NE(registry.SnapshotJson().find("\"invalid\":3"), std::string::npos);
  registry.ResetAll();
  EXPECT_EQ(q->InvalidCount(), 0u);
}

TEST_F(MetricsTest, ValuesAboveTopBoundLandInOverflowBucket) {
  MetricsRegistry registry;
  QuantileHistogram* q =
      registry.GetQuantileHistogram("test.hist", LatencySecondsOptions());
  MetricsRegistry::SetEnabled(true);
  q->Observe(1e300);
  EXPECT_EQ(q->Count(), 1u);
  EXPECT_EQ(q->InvalidCount(), 0u);
  QuantileHistogramSnapshot snap = q->Snapshot();
  EXPECT_EQ(snap.overflow, 1u);
  uint64_t in_range = 0;
  for (uint64_t b : snap.buckets) in_range += b;
  EXPECT_EQ(in_range, 0u);
  // Quantiles of overflowed data clamp to max_value.
  EXPECT_EQ(snap.ValueAtQuantile(0.5), LatencySecondsOptions().max_value);
}

TEST_F(MetricsTest, PrometheusExpositionFormat) {
  MetricsRegistry registry;
  MetricsRegistry::SetEnabled(true);
  registry.GetCounter("floc.actions_applied")->Inc(5);
  registry.GetGauge("g")->Set(1.5);
  QuantileHistogram* q =
      registry.GetQuantileHistogram("lat.seconds", LatencySecondsOptions());
  q->Observe(0.5);
  q->Observe(100.0);
  std::ostringstream out;
  registry.WriteExposition(out);
  std::string text = out.str();
  // Dots sanitize to underscores; counters/gauges carry TYPE lines.
  EXPECT_NE(text.find("# TYPE floc_actions_applied counter\n"
                      "floc_actions_applied 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE g gauge\ng 1.5\n"), std::string::npos);
  // Sections follow in counter, gauge, summary order; a summary ends
  // with its sum and count.
  size_t gauge = text.find("# TYPE g gauge");
  size_t summary = text.find("# TYPE lat_seconds summary\n");
  ASSERT_NE(summary, std::string::npos);
  EXPECT_LT(text.find("# TYPE floc_actions_applied counter"), gauge);
  EXPECT_LT(gauge, summary);
  EXPECT_NE(text.find("lat_seconds_sum 100.5\nlat_seconds_count 2\n"),
            std::string::npos);
}

TEST_F(MetricsTest, QuantileHistogramsExportAsSummaries) {
  MetricsRegistry registry;
  MetricsRegistry::SetEnabled(true);
  QuantileHistogram* q =
      registry.GetQuantileHistogram("iter.latency", LatencySecondsOptions());
  for (int i = 1; i <= 100; ++i) q->Observe(i * 0.001);
  std::ostringstream out;
  registry.WriteExposition(out);
  std::string text = out.str();
  EXPECT_NE(text.find("# TYPE iter_latency summary"), std::string::npos);
  // Labels are the shortest round-trip decimals, the series keys a
  // scraper expects ("0.9", not "0.90000000000000002").
  for (const char* label : {"0.5", "0.9", "0.99", "0.999"}) {
    EXPECT_NE(text.find("iter_latency{quantile=\"" + std::string(label) +
                        "\"} "),
              std::string::npos)
        << label << " in\n" << text;
  }
  EXPECT_NE(text.find("iter_latency_count 100"), std::string::npos);
  // The JSON snapshot gains a quantile_histograms section only when one
  // is registered (pre-existing consumers see unchanged output).
  EXPECT_NE(registry.SnapshotJson().find("\"quantile_histograms\""),
            std::string::npos);
  MetricsRegistry empty;
  EXPECT_EQ(empty.SnapshotJson().find("quantile_histograms"),
            std::string::npos);
}

TEST_F(MetricsTest, WriteJsonFileRoundTrips) {
  MetricsRegistry registry;
  MetricsRegistry::SetEnabled(true);
  registry.GetCounter("file.counter")->Inc(7);
  std::string path = ::testing::TempDir() + "/metrics_snapshot.json";
  ASSERT_TRUE(registry.WriteJsonFile(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"file.counter\":7"), std::string::npos);
}

}  // namespace
}  // namespace deltaclus::obs
