// Synthetic data generation with embedded (planted) delta-clusters,
// reproducing the workloads of the paper's Section 6.2:
//   * matrices from 100 x 20 up to 3000 x 100 (and beyond),
//   * a configurable number of embedded shift-coherent clusters,
//   * embedded-cluster volumes following an Erlang distribution with a
//     configurable variance (Figure 9, Table 5),
//   * optional in-cluster noise (to hit a target average residue, e.g. 5
//     in Table 5) and optional missing entries.
//
// An embedded cluster is a submatrix whose entries are
//   base + row_offset_i + col_offset_j + Normal(0, noise_stddev);
// with zero noise it is a *perfect* delta-cluster (residue 0).
#ifndef DELTACLUS_DATA_SYNTHETIC_H_
#define DELTACLUS_DATA_SYNTHETIC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/data_matrix.h"
#include "src/util/rng.h"

namespace deltaclus {

/// Parameters for GenerateSynthetic().
struct SyntheticConfig {
  /// Matrix dimensions: `rows` objects x `cols` attributes.
  size_t rows = 3000;
  size_t cols = 100;

  /// Number of embedded clusters.
  size_t num_clusters = 50;

  /// Mean embedded-cluster volume. 0 derives the paper's default
  /// (0.04 * rows) * (0.1 * cols).
  double volume_mean = 0.0;

  /// Variance of the Erlang distribution of embedded volumes; 0 makes all
  /// volumes equal to the mean (the paper's "variance 0").
  double volume_variance = 0.0;

  /// Fraction of the matrix's columns a cluster spans (the paper embeds
  /// clusters that are 0.1 * #attributes wide); rows follow from the
  /// volume. Values are clamped so every cluster is at least 2 x 2.
  double col_fraction = 0.1;

  /// Background entries are Uniform(background_lo, background_hi).
  double background_lo = 0.0;
  double background_hi = 600.0;

  /// Embedded-cluster structure: base ~ U(background range), row offsets
  /// ~ U(-offset_range, offset_range), column offsets likewise.
  double offset_range = 60.0;

  /// In-cluster Gaussian noise; 0 plants perfect clusters. The expected
  /// mean absolute residue of a planted cluster is approximately
  /// noise_stddev * sqrt(2 / pi) (slightly less for small clusters).
  double noise_stddev = 0.0;

  /// Fraction of all entries masked as missing (applied uniformly after
  /// value generation).
  double missing_fraction = 0.0;

  /// If true, each cluster's member rows are drawn from rows not used by
  /// earlier clusters while they last (keeping planted structures clean);
  /// columns may always overlap. If false, rows are sampled freely.
  bool prefer_disjoint_rows = true;

  /// RNG seed.
  uint64_t seed = 1;

  /// Returns a human-readable description of every inconsistency in this
  /// configuration (empty = valid). GenerateSynthetic throws
  /// std::invalid_argument listing them.
  std::vector<std::string> Validate() const;
};

/// A generated matrix plus its planted ground truth.
struct SyntheticDataset {
  DataMatrix matrix;
  std::vector<Cluster> embedded;

  SyntheticDataset() : matrix(0, 0) {}
};

/// Generates a matrix with embedded shift-coherent clusters per `config`.
/// Throws std::invalid_argument when config.Validate() finds a problem.
SyntheticDataset GenerateSynthetic(const SyntheticConfig& config);

/// Plants one shift-coherent cluster into `matrix` over the given members:
/// entry (i, j) := base + row_offset[i-pos] + col_offset[j-pos] + noise.
/// Exposed for tests and custom generators.
void PlantShiftCluster(DataMatrix* matrix, const Cluster& members,
                       double base, double offset_range, double noise_stddev,
                       Rng& rng);

}  // namespace deltaclus

#endif  // DELTACLUS_DATA_SYNTHETIC_H_
