// Independent correctness checks for the benchmark. Nothing here calls
// the deltaclus library: the input files are parsed by a reader of the
// benchmark's own, and cluster bases, residues, volumes, occupancy and
// planted-cluster recall are recomputed from the definitions of the
// paper (Definitions 3.1, 3.4, 3.5; Section 6.2.2 for recall and
// precision), so a fault in the library's readers, residue kernels or
// evaluation code shows up as a mismatch instead of being checked
// against itself.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Read-only row-major view of a matrix with missing entries: row i's
/// value of column j is values[i][j], specified when mask[i][j] != 0.
/// The rows may live in any storage that outlives the view.
struct Grid {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<const double*> values;
  std::vector<const uint8_t*> mask;

  bool Has(size_t i, size_t j) const { return mask[i][j] != 0; }
  double At(size_t i, size_t j) const { return values[i][j]; }
};

/// A matrix owned by the checker, as parsed from an input file.
struct OwnedMatrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<double> values;  // row-major
  std::vector<uint8_t> mask;   // row-major, 1 = specified

  Grid View() const;
};

/// Parses dense CSV ("NA" or an empty field is missing). Throws
/// std::runtime_error on a ragged or unparsable file.
OwnedMatrix ParseCsvFile(const std::string& path);

/// Parses "row,col,value" lines (0-based) into a rows x cols matrix.
/// Throws std::runtime_error on a malformed line or an index out of range.
OwnedMatrix ParseTriplesFile(const std::string& path, size_t rows,
                             size_t cols);

/// Order-sensitive hash of the shape, the missing-entry mask and the bit
/// pattern of every specified value.
uint64_t Fingerprint(const Grid& grid);

/// Row and column ids of one cluster.
struct Members {
  std::vector<uint32_t> rows;
  std::vector<uint32_t> cols;
};

/// Statistics of one cluster recomputed from scratch.
struct ClusterFacts {
  size_t volume = 0;              ///< specified entries in I x J
  double base = 0.0;              ///< d_IJ
  std::vector<double> row_bases;  ///< d_iJ, aligned with Members::rows
  std::vector<double> col_bases;  ///< d_Ij, aligned with Members::cols
  double residue = 0.0;           ///< mean |d_ij - d_iJ - d_Ij + d_IJ|
};

ClusterFacts Recompute(const Grid& grid, const Members& cluster);

/// Definition 3.1: every member row has at least alpha * |J| specified
/// entries over J, and every member column at least alpha * |I| over I.
bool AlphaOccupied(const Grid& grid, const Members& cluster, double alpha);

/// Entry-level recall and precision of `found` against `truth`, over
/// specified entries only (an entry covered twice counts once).
struct Match {
  double recall = 0.0;
  double precision = 0.0;
};
Match PlantedMatch(const Grid& grid, const std::vector<Members>& truth,
                   const std::vector<Members>& found);

/// Writes clusters as "r r r ... | c c c ..." lines; reads them back.
void WriteMembersFile(const std::vector<Members>& clusters,
                      const std::string& path);
std::vector<Members> ReadMembersFile(const std::string& path);

/// |a - b| within 1e-9 relative (and absolute near 0): the library sums
/// in a different order than the checker, so bits may differ.
bool Near(double a, double b);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
