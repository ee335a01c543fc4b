// perfbench: the whole-run benchmark of the deltaclus library. It drives
// the library the way `deltaclus_cli mine` does and times each layer from
// outside, around calls to that layer's public functions.
//
//   perfbench gen --workload W --seed S --dir D
//       Generates the workload's input from S and writes it to D as the
//       file the program reads, plus the planted clusters and the
//       fingerprint of the file's contents (parsed by the checker).
//   perfbench run --workload W --dir D --seconds N --trace 0|1
//       Reads D's input, mines it, checks every result and prints one
//       JSON object as the last line: the end-to-end metrics with
//       --trace 0, the per-layer metrics with --trace 1.
//
// A run is: set-up repeated at least kMinSetups times and for at least
// kMinSetupSeconds (median reported; a millisecond set-up sampled over a
// fraction of a second reads whatever the shared host did then), one
// discarded warm-up round whose results are checked in full, timed
// rounds until N seconds have passed and at least kMinTimedRounds ran
// (median reported; each must repeat the warm-up's clusters exactly),
// and with --trace 1 one more round with metrics and tracing on, kept
// apart from the timed rounds.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checker.h"
#include "src/core/cluster_workspace.h"
#include "src/data/matrix_io.h"
#include "src/engine/thread_pool.h"
#include "src/eval/metrics.h"
#include "src/obs/metrics.h"
#include "src/obs/perf_report.h"
#include "src/obs/trace.h"
#include "src/session/mining_session.h"
#include "workloads.h"

namespace perfbench {
namespace {

using deltaclus::Cluster;
using deltaclus::DataMatrix;
using deltaclus::Floc;
using deltaclus::FlocConfig;
using deltaclus::FlocResult;
using deltaclus::session::MiningSession;
using deltaclus::session::SessionState;
using deltaclus::session::StopReason;
using Clock = std::chrono::steady_clock;

constexpr int kMinSetups = 15;
constexpr double kMinSetupSeconds = 1.0;
constexpr int kMinTimedRounds = 2;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Grid GridOf(const DataMatrix& m) {
  Grid g;
  g.rows = m.rows();
  g.cols = m.cols();
  for (size_t i = 0; i < m.rows(); ++i) {
    g.values.push_back(m.RowValues(i).data());
    g.mask.push_back(m.RowMask(i).data());
  }
  return g;
}

Members MembersOf(const Cluster& c) {
  return Members{c.row_ids(), c.col_ids()};
}

Cluster ClusterOf(const Members& m, size_t rows, size_t cols) {
  return Cluster::FromMembers(
      rows, cols, std::vector<size_t>(m.rows.begin(), m.rows.end()),
      std::vector<size_t>(m.cols.begin(), m.cols.end()));
}

// ---------------------------------------------------------------------------
// gen

int Gen(const Workload& w, uint64_t seed, const std::string& dir) {
  GeneratedInput in = Generate(w, seed);
  std::string path = dir + "/" + w.InputFile();
  OwnedMatrix parsed;
  if (w.format == InputFormat::kCsv) {
    deltaclus::WriteCsvFile(in.matrix, path);
    parsed = ParseCsvFile(path);
  } else {
    std::ofstream out(path);
    deltaclus::WriteTriples(in.matrix, out);
    out.close();
    if (!out) throw std::runtime_error("cannot write " + path);
    parsed = ParseTriplesFile(path, w.ratings.users, w.ratings.movies);
  }
  std::vector<Members> truth;
  for (const Cluster& c : in.planted) truth.push_back(MembersOf(c));
  WriteMembersFile(truth, dir + "/planted.txt");
  std::ofstream fp(dir + "/fingerprint.txt");
  fp << Fingerprint(parsed.View()) << "\n";
  fp.close();
  if (!fp) throw std::runtime_error("cannot write fingerprint in " + dir);
  size_t specified = 0;
  for (uint8_t b : parsed.mask) specified += b;
  std::cerr << "perfbench gen: " << w.name << " seed " << seed << ": "
            << parsed.rows << "x" << parsed.cols << ", " << specified
            << " specified, " << truth.size() << " planted clusters\n";
  return 0;
}

// ---------------------------------------------------------------------------
// run

// Reads the workload's input through the public reader of its format.
DataMatrix ReadInput(const Workload& w, const std::string& path) {
  if (w.format == InputFormat::kCsv) {
    return deltaclus::ReadMatrixFile(path, w.backend);
  }
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return deltaclus::ReadTriples(in, w.ratings.users, w.ratings.movies);
}

// Session-layer timings of one mine, taken around public calls.
struct MineTiming {
  double wall = 0.0;
  double seeding = 0.0;     // Floc::StartSession
  double move = 0.0;        // Step() calls in the move phase
  double refine = 0.0;      // Step() calls in the refine stage
  double reseed = 0.0;      // Step() calls in the reseed check
  double checkpoint = 0.0;  // MiningSession::Checkpoint
  double resume = 0.0;      // Floc::ResumeSession
  double checkpoint_bytes = 0.0;
  std::vector<double> move_steps;
  // Phase walls from the results' own perf reports.
  double determine = 0.0;
  double apply = 0.0;
};

void AddPhases(const FlocResult& r, MineTiming* t) {
  for (const deltaclus::obs::PerfPhase& p : r.perf.phases) {
    if (p.name == "determine") t->determine += p.wall_seconds;
    if (p.name == "apply") t->apply += p.wall_seconds;
  }
}

void StepToEnd(MiningSession& s, MineTiming* t) {
  for (;;) {
    SessionState state = s.Status().state;
    Clock::time_point t0 = Clock::now();
    bool more = s.Step();
    double dt = Since(t0);
    // A step refused by a budget did no work.
    if (!more && s.stop_reason() != StopReason::kNone) return;
    switch (state) {
      case SessionState::kMovePhase:
        t->move += dt;
        t->move_steps.push_back(dt);
        break;
      case SessionState::kRefine:
        t->refine += dt;
        break;
      case SessionState::kReseedCheck:
        t->reseed += dt;
        break;
      case SessionState::kDone:
        break;
    }
    if (!more) return;
  }
}

// The mined workload: its matrix, pool and one Floc per FLOC seed.
struct Miner {
  const Workload& w;
  std::string checkpoint_path;
  std::vector<size_t> caps;  // iteration cap per seed (checkpoint_resume)
  DataMatrix matrix{0, 0};
  std::unique_ptr<deltaclus::engine::ThreadPool> pool;
  std::vector<std::unique_ptr<Floc>> flocs;

  FlocConfig ConfigFor(size_t m, size_t cap) const {
    FlocConfig c = w.config;
    c.rng_seed = m + 1;
    c.threads = w.threads;
    c.pool = pool.get();
    c.max_total_iterations = cap;
    return c;
  }

  // Set-up as a user pays it: read the file, start the pool, construct
  // the miners. Returns the three durations.
  void SetUp(const std::string& input, double* read_s, double* pool_s,
             double* total_s) {
    flocs.clear();
    pool.reset();
    Clock::time_point t0 = Clock::now();
    matrix = ReadInput(w, input);
    *read_s = Since(t0);
    Clock::time_point t1 = Clock::now();
    pool = std::make_unique<deltaclus::engine::ThreadPool>(w.threads);
    *pool_s = Since(t1);
    for (size_t m = 0; m < w.mines_per_round; ++m) {
      flocs.push_back(std::make_unique<Floc>(
          ConfigFor(m, w.checkpoint_resume ? caps[m] : 0)));
    }
    *total_s = Since(t0);
  }

  // One mine from matrix to final clustering with FLOC seed m+1.
  FlocResult Mine(size_t m, MineTiming* t) {
    std::optional<Floc> resumed;  // must outlive `session`
    Clock::time_point start = Clock::now();
    Clock::time_point t0 = start;
    std::unique_ptr<MiningSession> session = flocs[m]->StartSession(matrix);
    t->seeding += Since(t0);
    StepToEnd(*session, t);
    if (w.checkpoint_resume) {
      if (session->stop_reason() != StopReason::kIterationCap) {
        throw std::runtime_error("mine did not stop at its iteration cap");
      }
      t0 = Clock::now();
      session->Checkpoint(checkpoint_path);
      t->checkpoint += Since(t0);
      struct stat st {};
      if (::stat(checkpoint_path.c_str(), &st) == 0) {
        t->checkpoint_bytes += static_cast<double>(st.st_size);
      }
      AddPhases(session->Finish(), t);
      t0 = Clock::now();
      resumed.emplace(ConfigFor(m, 0));
      session = resumed->ResumeSession(matrix, checkpoint_path);
      t->resume += Since(t0);
      StepToEnd(*session, t);
    }
    FlocResult r = session->Finish();
    AddPhases(r, t);
    t->wall += Since(start);
    return r;
  }
};

struct Quality {
  double avg_residue = 0.0;
  double agg_volume = 0.0;
  double recall = 0.0;
  double precision = 0.0;
};

// Checks one result against the input from scratch. Returns "" when
// every check holds, else the first failure.
std::string CheckResult(const Workload& w, const Grid& grid,
                        const DataMatrix& matrix,
                        const std::vector<Members>& truth,
                        const FlocResult& r, Quality* q) {
  std::ostringstream err;
  const deltaclus::Constraints& cons = w.config.constraints;
  if (r.clusters.size() != w.config.num_clusters ||
      r.residues.size() != r.clusters.size()) {
    err << "expected " << w.config.num_clusters << " clusters, got "
        << r.clusters.size() << " with " << r.residues.size() << " residues";
    return err.str();
  }
  std::vector<Members> found;
  double residue_sum = 0.0;
  size_t volume_sum = 0;
  for (size_t c = 0; c < r.clusters.size(); ++c) {
    Members mem = MembersOf(r.clusters[c]);
    ClusterFacts f = Recompute(grid, mem);
    if (!Near(f.residue, r.residues[c])) {
      err << "cluster " << c << ": residue " << r.residues[c]
          << " but recomputed " << f.residue;
      return err.str();
    }
    deltaclus::ClusterView view(matrix, r.clusters[c]);
    const deltaclus::ClusterStats& stats = view.stats();
    bool bases_ok = stats.Volume() == f.volume &&
                    Near(stats.ClusterBase(), f.base);
    for (size_t a = 0; a < mem.rows.size(); ++a) {
      bases_ok = bases_ok && Near(stats.RowBase(mem.rows[a]), f.row_bases[a]);
    }
    for (size_t b = 0; b < mem.cols.size(); ++b) {
      bases_ok = bases_ok && Near(stats.ColBase(mem.cols[b]), f.col_bases[b]);
    }
    if (!bases_ok) {
      err << "cluster " << c << ": volume or bases differ from recomputed";
      return err.str();
    }
    if (mem.rows.size() < cons.min_rows || mem.cols.size() < cons.min_cols) {
      err << "cluster " << c << ": " << mem.rows.size() << "x"
          << mem.cols.size() << " is below the minimum " << cons.min_rows
          << "x" << cons.min_cols;
      return err.str();
    }
    if (cons.alpha > 0.0 && !AlphaOccupied(grid, mem, cons.alpha)) {
      err << "cluster " << c << ": violates occupancy alpha " << cons.alpha;
      return err.str();
    }
    residue_sum += f.residue;
    volume_sum += f.volume;
    found.push_back(std::move(mem));
  }
  double avg = residue_sum / static_cast<double>(found.size());
  if (!Near(avg, r.average_residue)) {
    err << "average residue " << r.average_residue << " but recomputed "
        << avg;
    return err.str();
  }
  if (deltaclus::AggregateVolume(matrix, r.clusters) != volume_sum) {
    err << "aggregate volume differs from recomputed " << volume_sum;
    return err.str();
  }
  Match match = PlantedMatch(grid, truth, found);
  std::vector<Cluster> truth_clusters;
  for (const Members& t : truth) {
    truth_clusters.push_back(ClusterOf(t, grid.rows, grid.cols));
  }
  deltaclus::MatchQuality lib =
      deltaclus::EntryRecallPrecision(matrix, truth_clusters, r.clusters);
  if (!Near(lib.recall, match.recall) ||
      !Near(lib.precision, match.precision)) {
    err << "recall/precision " << lib.recall << "/" << lib.precision
        << " but recomputed " << match.recall << "/" << match.precision;
    return err.str();
  }
  q->avg_residue = avg;
  q->agg_volume = static_cast<double>(volume_sum);
  q->recall = match.recall;
  q->precision = match.precision;
  return "";
}

bool SameResult(const FlocResult& a, const FlocResult& b) {
  if (a.clusters != b.clusters || a.residues.size() != b.residues.size()) {
    return false;
  }
  for (size_t c = 0; c < a.residues.size(); ++c) {
    if (std::memcmp(&a.residues[c], &b.residues[c], sizeof(double)) != 0) {
      return false;
    }
  }
  return std::memcmp(&a.average_residue, &b.average_residue,
                     sizeof(double)) == 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int Run(const Workload& w, const std::string& dir, double seconds,
        bool trace) {
  const std::string input = dir + "/" + w.InputFile();
  const std::vector<Members> truth = ReadMembersFile(dir + "/planted.txt");
  uint64_t want_fingerprint = 0;
  {
    std::ifstream fp(dir + "/fingerprint.txt");
    if (!(fp >> want_fingerprint)) {
      throw std::runtime_error("cannot read " + dir + "/fingerprint.txt");
    }
  }
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;

  Miner miner{w, dir + "/session.dcs", {}, DataMatrix(0, 0), nullptr, {}};
  const size_t seeds = w.mines_per_round;

  // Untimed preparation: the loaded matrix must be the file's contents,
  // and a checkpointed mine is checked against an uninterrupted 1-thread
  // run, whose iteration count also places the checkpoint halfway.
  std::vector<FlocResult> uninterrupted;
  {
    DataMatrix m = ReadInput(w, input);
    if (Fingerprint(GridOf(m)) != want_fingerprint) {
      std::cerr << "perfbench: the matrix read from " << input
                << " differs from the file's contents\n";
      correct = false;
    }
    if (w.checkpoint_resume) {
      for (size_t s = 0; s < seeds; ++s) {
        FlocConfig c = w.config;
        c.rng_seed = s + 1;
        c.threads = 1;
        uninterrupted.push_back(Floc(c).Run(m));
        miner.caps.push_back(
            std::max<size_t>(1, uninterrupted[s].iterations / 2));
      }
    }
  }

  // Set-up, repeated; the last one is kept for mining.
  std::vector<double> setup_s, read_s, pool_s;
  double setup_total = 0.0;
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         setup_total < kMinSetupSeconds) {
    double r = 0, p = 0, t = 0;
    miner.SetUp(input, &r, &p, &t);
    read_s.push_back(r);
    pool_s.push_back(p);
    setup_s.push_back(t);
    setup_total += t;
  }
  const Grid grid = GridOf(miner.matrix);

  // Warm-up round: checked in full, kept as the reference.
  std::vector<FlocResult> reference(seeds);
  std::vector<bool> usable(seeds, false);
  Quality quality;
  for (size_t s = 0; s < seeds; ++s) {
    ++attempted;
    MineTiming t;
    std::string problem;
    try {
      reference[s] = miner.Mine(s, &t);
      Quality q;
      problem = CheckResult(w, grid, miner.matrix, truth, reference[s], &q);
      if (problem.empty() && w.checkpoint_resume &&
          !SameResult(reference[s], uninterrupted[s])) {
        problem = "resumed result differs from the uninterrupted 1-thread run";
      }
      quality.avg_residue += q.avg_residue / seeds;
      quality.agg_volume += q.agg_volume / seeds;
      quality.recall += q.recall / seeds;
      quality.precision += q.precision / seeds;
    } catch (const std::exception& e) {
      problem = e.what();
    }
    if (!problem.empty()) {
      std::cerr << "perfbench: " << w.name << " FLOC seed " << s + 1 << ": "
                << problem << "\n";
      ++failed;
    } else {
      usable[s] = true;
    }
  }

  // One round: every FLOC seed once, timings summed into *sum.
  auto round = [&](MineTiming* sum) {
    for (size_t s = 0; s < seeds; ++s) {
      ++attempted;
      if (!usable[s]) {
        ++failed;
        continue;
      }
      try {
        if (!SameResult(miner.Mine(s, sum), reference[s])) {
          std::cerr << "perfbench: " << w.name << " FLOC seed " << s + 1
                    << ": a repeat returned different clusters\n";
          ++failed;
        }
      } catch (const std::exception& e) {
        std::cerr << "perfbench: " << w.name << ": " << e.what() << "\n";
        ++failed;
      }
    }
  };

  // Timed rounds.
  std::vector<MineTiming> rounds;
  double timed_wall = 0.0;
  double cpu0 = CpuNow();
  Clock::time_point timed_start = Clock::now();
  while (static_cast<int>(rounds.size()) < kMinTimedRounds ||
         timed_wall < seconds) {
    MineTiming t;
    round(&t);
    std::cerr << "perfbench: " << w.name << " round " << rounds.size() + 1
              << ": " << t.wall / seeds << " s per mine\n";
    rounds.push_back(std::move(t));
    timed_wall = Since(timed_start);
  }
  double cpu_per_wall = (CpuNow() - cpu0) / timed_wall;

  auto per_mine = [&](double MineTiming::*field) {
    std::vector<double> v;
    for (const MineTiming& t : rounds) v.push_back(t.*field / seeds);
    return Median(v);
  };

  if (!trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    PrintResult(correct && failed == 0, attempted, failed,
                {{"setup_s", Median(setup_s), "s"},
                 {"mine_s", per_mine(&MineTiming::wall), "s"},
                 {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                  "MB"},
                 {"avg_residue", quality.avg_residue, "residue"},
                 {"agg_volume", quality.agg_volume, "entries"},
                 {"planted_recall", quality.recall, "ratio"},
                 {"planted_precision", quality.precision, "ratio"}});
    return 0;
  }

  // Traced round, apart from the timed ones: metrics and tracing on,
  // counters read from a perf report over the round's window.
  deltaclus::obs::MetricsRegistry::SetEnabled(true);
  deltaclus::obs::TraceRecorder::SetEnabled(true);
  MineTiming traced;
  deltaclus::obs::PerfAccounting window;
  round(&traced);
  deltaclus::obs::PerfReport report = window.Finish(
      "floc", traced.wall, 0.0, 0,
      {{"determine", traced.determine, 0.0, 0.0},
       {"apply", traced.apply, 0.0, 0.0}},
      {nullptr, nullptr});
  deltaclus::obs::TraceRecorder::SetEnabled(false);
  deltaclus::obs::MetricsRegistry::SetEnabled(false);

  std::vector<double> steps;
  for (const MineTiming& t : rounds) {
    steps.insert(steps.end(), t.move_steps.begin(), t.move_steps.end());
  }
  double iterations = 0.0;
  for (const FlocResult& r : reference) iterations += r.iterations;
  struct stat st {};
  double input_mb = ::stat(input.c_str(), &st) == 0
                        ? static_cast<double>(st.st_size) / (1024.0 * 1024.0)
                        : 0.0;
  const double n = static_cast<double>(seeds);
  const double mine_s = per_mine(&MineTiming::wall);
  PrintResult(
      correct && failed == 0, attempted, failed,
      {{"storage.read_s", Median(read_s), "s"},
       {"storage.input_mb", input_mb, "MB"},
       {"engine.pool_start_s", Median(pool_s), "s"},
       {"engine.cpu_per_wall", cpu_per_wall, "ratio"},
       {"seeding.s", per_mine(&MineTiming::seeding), "s"},
       {"session.move_iterations", iterations / n, "count"},
       {"session.move_s", per_mine(&MineTiming::move), "s"},
       {"session.move_step_p50_s", Median(steps), "s"},
       {"session.refine_s", per_mine(&MineTiming::refine), "s"},
       {"session.reseed_s", per_mine(&MineTiming::reseed), "s"},
       {"session.checkpoint_s", per_mine(&MineTiming::checkpoint), "s"},
       {"session.checkpoint_kb", rounds[0].checkpoint_bytes / n / 1024.0,
        "KB"},
       {"session.resume_s", per_mine(&MineTiming::resume), "s"},
       {"core.determine_s", traced.determine / n, "s"},
       {"core.apply_s", traced.apply / n, "s"},
       {"core.entries_scanned", report.entries_scanned / n, "count"},
       {"core.entries_per_s", report.entries_per_second, "1/s"},
       {"core.dense_dispatch_rate", report.dense_dispatch_rate, "ratio"},
       {"core.memo_hit_rate", report.gain_memo_hit_rate, "ratio"},
       {"core.memo_recomputed", report.gain_evals_recomputed / n, "count"},
       {"core.pane_patches", report.pane_patches / n, "count"},
       {"core.pane_rebuilds", report.pane_rebuilds / n, "count"},
       {"core.pane_compactions", report.pane_compactions / n, "count"},
       {"core.clusters_skipped_clean", report.clusters_skipped_clean / n,
        "count"},
       {"engine.sweeps", report.pool_sweeps / n, "count"},
       {"engine.shards", report.pool_shards / n, "count"},
       {"engine.shard_imbalance_p50", report.shard_imbalance.p50, "ratio"},
       {"obs.traced_mine_s", traced.wall / n, "s"},
       {"obs.trace_overhead", traced.wall / n / mine_s, "ratio"}});
  return 0;
}

int Usage() {
  std::cerr << "usage: perfbench gen --workload W --seed S --dir D\n"
               "       perfbench run --workload W --dir D --seconds N "
               "--trace 0|1\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  const Workload* w = FindWorkload(flags["workload"]);
  if (w == nullptr || flags["dir"].empty()) return Usage();
  try {
    if (cmd == "gen" && !flags["seed"].empty()) {
      return Gen(*w, std::stoull(flags["seed"]), flags["dir"]);
    }
    if (cmd == "run" && !flags["seconds"].empty()) {
      return Run(*w, flags["dir"], std::stod(flags["seconds"]),
                 flags["trace"] == "1");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return Usage();
}
