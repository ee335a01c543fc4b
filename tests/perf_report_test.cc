#include "src/obs/perf_report.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/baseline/cheng_church.h"
#include "src/core/floc.h"
#include "src/data/synthetic.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace deltaclus {
namespace {

using obs::MetricsRegistry;
using obs::PerfReport;
using obs::TraceRecorder;

DataMatrix SmallMatrix() {
  SyntheticConfig config;
  config.rows = 120;
  config.cols = 24;
  config.num_clusters = 4;
  config.noise_stddev = 1.0;
  config.missing_fraction = 0.0;
  config.seed = 7;
  return GenerateSynthetic(config).matrix;
}

FlocConfig BaseConfig() {
  FlocConfig config;
  config.num_clusters = 4;
  config.rng_seed = 7;
  config.refine_passes = 0;
  return config;
}

// Both observability surfaces are process-global; every test restores
// the disabled defaults.
class PerfReportTest : public ::testing::Test {
 protected:
  void TearDown() override {
    MetricsRegistry::SetEnabled(false);
    TraceRecorder::SetEnabled(false);
  }
};

TEST_F(PerfReportTest, FlocRunAssemblesReportWhenMetricsOn) {
  MetricsRegistry::SetEnabled(true);
  DataMatrix matrix = SmallMatrix();
  FlocResult result = Floc(BaseConfig()).Run(matrix);

  const PerfReport& perf = result.perf;
  EXPECT_EQ(perf.algorithm, "floc");
  EXPECT_TRUE(perf.metrics_valid);
  EXPECT_FALSE(perf.trace_valid);  // tracing stayed off
  EXPECT_GT(perf.total_seconds, 0.0);
  EXPECT_EQ(perf.iterations, result.iterations);
  // FLOC's six phases, in pipeline order, with seeding covered (the
  // report window opens before Phase 1).
  ASSERT_EQ(perf.phases.size(), 6u);
  EXPECT_EQ(perf.phases[0].name, "seeding");
  EXPECT_EQ(perf.phases[1].name, "move_phase");
  EXPECT_GT(perf.phases[0].wall_seconds, 0.0);
  EXPECT_GT(perf.phases[1].wall_seconds, 0.0);
  for (const obs::PerfPhase& phase : perf.phases) {
    EXPECT_GE(phase.share, 0.0);
    EXPECT_LE(phase.share, 1.0) << phase.name;
  }
  // Counter deltas over the run window.
  EXPECT_GT(perf.entries_scanned, 0u);
  EXPECT_GT(perf.entries_per_second, 0.0);
  EXPECT_GT(perf.gain_evals_recomputed, 0u);
  EXPECT_GE(perf.gain_memo_hit_rate, 0.0);
  EXPECT_LE(perf.gain_memo_hit_rate, 1.0);
  EXPECT_GT(perf.dense_dispatch_rate, 0.0);
  // The gain bound settles most memo misses without a scan.
  EXPECT_GT(perf.gain_evals_pruned, 0u);
  EXPECT_GT(perf.gain_prune_rate, 0.0);
  EXPECT_LE(perf.gain_prune_rate, 1.0);
  // One latency observation per iteration.
  EXPECT_EQ(perf.iteration_latency.count, result.iterations);
  EXPECT_GT(perf.iteration_latency.p50, 0.0);
  EXPECT_GE(perf.iteration_latency.p99, perf.iteration_latency.p50);
}

TEST_F(PerfReportTest, RefineScansCountAsRecomputedEvaluations) {
  // Every counted exact scan is a recomputed evaluation, whichever loop
  // asked for it, so the prune rate and the memo hit rate cover one set
  // of evaluations: refinement adds to both of the prune rate's counts.
  MetricsRegistry::SetEnabled(true);
  DataMatrix matrix = SmallMatrix();
  FlocConfig config = BaseConfig();
  PerfReport without = Floc(config).Run(matrix).perf;
  config.refine_passes = 2;
  PerfReport with = Floc(config).Run(matrix).perf;
  EXPECT_GT(with.gain_evals_recomputed, without.gain_evals_recomputed);
  EXPECT_GT(with.gain_evals_pruned, without.gain_evals_pruned);
}

TEST_F(PerfReportTest, ReportIsInvalidatedWhenMetricsOff) {
  DataMatrix matrix = SmallMatrix();
  FlocResult result = Floc(BaseConfig()).Run(matrix);
  EXPECT_FALSE(result.perf.metrics_valid);
  EXPECT_EQ(result.perf.entries_scanned, 0u);
  // Phase walls still come from the telemetry accumulators, which run
  // at every level including kOff.
  ASSERT_EQ(result.perf.phases.size(), 6u);
  EXPECT_GT(result.perf.phases[1].wall_seconds, 0.0);
  EXPECT_GT(result.perf.total_seconds, 0.0);
}

TEST_F(PerfReportTest, TraceAttributionFillsPhaseCpuSeconds) {
  MetricsRegistry::SetEnabled(true);
  TraceRecorder::SetEnabled(true);
  TraceRecorder::Global().Clear();
  DataMatrix matrix = SmallMatrix();
  FlocResult result = Floc(BaseConfig()).Run(matrix);
  EXPECT_TRUE(result.perf.trace_valid);
  // The move phase burned CPU and its span is in the ring.
  EXPECT_GT(result.perf.phases[1].cpu_seconds, 0.0);
}

TEST_F(PerfReportTest, ChengChurchRunAssemblesReport) {
  MetricsRegistry::SetEnabled(true);
  DataMatrix matrix = SmallMatrix();
  ChengChurchConfig config;
  config.num_clusters = 3;
  config.msr_threshold = 1.0;
  config.multiple_deletion_min = 20;
  config.mask_lo = -5.0;
  config.mask_hi = 5.0;
  ChengChurchResult result = RunChengChurch(matrix, config);

  const PerfReport& perf = result.perf;
  EXPECT_EQ(perf.algorithm, "cheng_church");
  EXPECT_TRUE(perf.metrics_valid);
  EXPECT_EQ(perf.iterations, result.clusters.size());
  ASSERT_EQ(perf.phases.size(), 4u);
  EXPECT_EQ(perf.phases[0].name, "multiple_deletion");
  EXPECT_EQ(perf.phases[1].name, "single_deletion");
  EXPECT_EQ(perf.phases[2].name, "node_addition");
  EXPECT_EQ(perf.phases[3].name, "masking");
  // Single deletion always runs on this workload.
  EXPECT_GT(perf.phases[1].wall_seconds, 0.0);
  EXPECT_GT(perf.total_seconds, 0.0);
}

TEST_F(PerfReportTest, JsonIsWellFormedAndValidatesKeys) {
  MetricsRegistry::SetEnabled(true);
  DataMatrix matrix = SmallMatrix();
  FlocResult result = Floc(BaseConfig()).Run(matrix);
  std::string json = result.perf.Json();
  for (const char* key :
       {"\"schema_version\":1", "\"algorithm\":\"floc\"",
        "\"total_seconds\"", "\"total_cpu_seconds\"", "\"iterations\"",
        "\"metrics_valid\":true", "\"trace_valid\"", "\"phases\"",
        "\"entries_scanned\"", "\"gain_evals_served\"",
        "\"gain_evals_recomputed\"", "\"entries_per_second\"",
        "\"dense_dispatch_rate\"", "\"gain_memo_hit_rate\"",
        "\"gain_evals_pruned\"", "\"gain_apply_skipped\"",
        "\"gain_prune_rate\"",
        "\"pool_sweeps\"", "\"pool_shards\"", "\"shard_imbalance\"",
        "\"iteration_latency\"", "\"wall_seconds\"", "\"share\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Ends in exactly one newline (JSONL-friendly, like the other
  // single-line documents obs/ writes).
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.back(), '\n');
  EXPECT_EQ(json.find('\n'), json.size() - 1);
}

TEST_F(PerfReportTest, WriteJsonFileRoundTrips) {
  MetricsRegistry::SetEnabled(true);
  DataMatrix matrix = SmallMatrix();
  FlocResult result = Floc(BaseConfig()).Run(matrix);
  std::string path = ::testing::TempDir() + "/perf_report.json";
  ASSERT_TRUE(result.perf.WriteJsonFile(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), result.perf.Json());
  EXPECT_FALSE(result.perf.WriteJsonFile("/nonexistent-dir/report.json"));
}

TEST_F(PerfReportTest, PrintTableShowsPhasesAndHints) {
  MetricsRegistry::SetEnabled(true);
  DataMatrix matrix = SmallMatrix();
  FlocResult result = Floc(BaseConfig()).Run(matrix);
  std::ostringstream out;
  result.perf.PrintTable(out);
  std::string text = out.str();
  EXPECT_NE(text.find("perf report: floc"), std::string::npos);
  EXPECT_NE(text.find("move_phase"), std::string::npos);
  EXPECT_NE(text.find("entries scanned"), std::string::npos);
  EXPECT_NE(text.find("iteration latency"), std::string::npos);
  // No tracing: the table says how to get per-phase CPU.
  EXPECT_NE(text.find("--trace-out"), std::string::npos);

  // Metrics off: the table still prints the phase walls plus a hint.
  PerfReport off = result.perf;
  off.metrics_valid = false;
  std::ostringstream out_off;
  off.PrintTable(out_off);
  EXPECT_NE(out_off.str().find("move_phase"), std::string::npos);
  EXPECT_EQ(out_off.str().find("entries scanned"), std::string::npos);
}

TEST_F(PerfReportTest, ConsecutiveRunsAccountIndependently) {
  // The snapshot-delta protocol: the second run's report must not
  // inherit the first run's counters even though the registry
  // accumulates globally and is never reset.
  MetricsRegistry::SetEnabled(true);
  DataMatrix matrix = SmallMatrix();
  FlocResult first = Floc(BaseConfig()).Run(matrix);
  FlocResult second = Floc(BaseConfig()).Run(matrix);
  EXPECT_EQ(first.perf.entries_scanned, second.perf.entries_scanned);
  EXPECT_EQ(first.perf.iteration_latency.count, first.iterations);
  EXPECT_EQ(second.perf.iteration_latency.count, second.iterations);
}

}  // namespace
}  // namespace deltaclus
