#include "workloads.h"

namespace perfbench {

namespace {

using deltaclus::FlocConfig;
using deltaclus::MatrixBackend;

// The volume-seeking defaults of `deltaclus_cli mine` (greedy actions,
// weighted-random ordering, the CLI's seeding probabilities).
FlocConfig CliDefaults() {
  FlocConfig c;
  c.perform_negative_actions = false;
  c.seeding.row_probability = 0.05;
  c.seeding.col_probability = 0.2;
  c.refine_passes = 2;
  c.reseed_rounds = 2;
  return c;
}

// Planted shift clusters with noise 2 (mean absolute residue ~1.6), mined
// for clusters of residue up to 2.5. The clusters span a fifth of the
// columns: at the README quickstart's tenth (5 of 50), FLOC recovers a
// different share of them on every seed (recall 0.13-0.41 over 15 runs),
// which no bound on recall or volume could hold.
deltaclus::SyntheticConfig Planted(size_t rows, size_t cols, size_t clusters,
                                   double volume) {
  deltaclus::SyntheticConfig s;
  s.rows = rows;
  s.cols = cols;
  s.num_clusters = clusters;
  s.col_fraction = 0.2;
  s.volume_mean = volume;
  s.noise_stddev = 2.0;
  return s;
}

std::vector<Workload> Build() {
  std::vector<Workload> all;

  // README quickstart shape (1000 x 50), 10 planted 100 x 10 clusters,
  // k = 60, 1 thread. A mine takes 21-33 iterations depending on the
  // FLOC seed; four seeds per round keep that out of the spread.
  Workload dense;
  dense.name = "dense-volume";
  dense.synthetic = Planted(1000, 50, 10, 1000);
  dense.mines_per_round = 4;
  dense.config = CliDefaults();
  dense.config.num_clusters = 60;
  dense.config.target_residue = 2.5;
  dense.config.constraints.min_rows = 4;
  dense.config.constraints.min_cols = 3;
  dense.config.reseed_rounds = 3;
  all.push_back(dense);

  // MovieLens-100K shape (943 x 1682, 100k ratings, 10 planted viewer
  // groups) with the Table-1 settings: alpha 0.6, minimum 8 x 8,
  // refine 3, reseed 2; k = 40, 1 thread.
  Workload sparse;
  sparse.name = "sparse-ratings";
  sparse.format = InputFormat::kTriples;
  sparse.mines_per_round = 3;
  sparse.config = CliDefaults();
  sparse.config.num_clusters = 40;
  sparse.config.seeding.row_probability = 0.06;
  sparse.config.seeding.col_probability = 0.03;
  sparse.config.constraints.alpha = 0.6;
  sparse.config.constraints.min_rows = 8;
  sparse.config.constraints.min_cols = 8;
  sparse.config.target_residue = 0.8;
  sparse.config.refine_passes = 3;
  sparse.config.reseed_rounds = 2;
  all.push_back(sparse);

  // Table-3 shape (3000 x 100), 3 planted 450 x 20 clusters, on the mmap
  // backend; k = 14 on a 2-thread pool, checkpointed and resumed halfway.
  // With k = 14 every planted cluster was found on every seed tried; at
  // k = 10, 2 seeds in 10 missed one. Mines take 3-5 s depending on the
  // seed, so a round averages two FLOC seeds.
  Workload pooled;
  pooled.name = "pooled-resume";
  pooled.backend = MatrixBackend::kMmap;
  pooled.synthetic = Planted(3000, 100, 3, 9000);
  pooled.threads = 2;
  pooled.checkpoint_resume = true;
  pooled.mines_per_round = 2;
  pooled.config = CliDefaults();
  pooled.config.num_clusters = 14;
  pooled.config.target_residue = 2.5;
  pooled.config.constraints.min_rows = 4;
  pooled.config.constraints.min_cols = 3;
  all.push_back(pooled);

  return all;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  static const std::vector<Workload> all = Build();
  for (const Workload& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

GeneratedInput Generate(const Workload& w, uint64_t seed) {
  GeneratedInput in;
  if (w.format == InputFormat::kTriples) {
    deltaclus::MovieLensSynthConfig c = w.ratings;
    c.seed = seed;
    deltaclus::MovieLensSynthDataset d = deltaclus::GenerateMovieLens(c);
    in.matrix = std::move(d.matrix);
    in.planted = std::move(d.planted_groups);
  } else {
    deltaclus::SyntheticConfig c = w.synthetic;
    c.seed = seed;
    deltaclus::SyntheticDataset d = deltaclus::GenerateSynthetic(c);
    in.matrix = std::move(d.matrix);
    in.planted = std::move(d.embedded);
  }
  return in;
}

}  // namespace perfbench
