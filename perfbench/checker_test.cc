// Hand-worked cases for the benchmark's correctness checker. Run by
// `ctest` in the benchmark's build tree and by run.py after each build.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "checker.h"

using perfbench::ClusterFacts;
using perfbench::Grid;
using perfbench::Members;
using perfbench::OwnedMatrix;

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "checker_test.cc:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)
#define EXPECT_EQ_DOUBLE(a, b) Expect(std::fabs((a) - (b)) < 1e-12, \
                                      #a " == " #b, __LINE__)

// rows x cols matrix from row-major values; NaN marks a missing entry.
OwnedMatrix Make(size_t rows, size_t cols, const std::vector<double>& v) {
  OwnedMatrix m;
  m.rows = rows;
  m.cols = cols;
  for (double x : v) {
    m.values.push_back(std::isnan(x) ? 0.0 : x);
    m.mask.push_back(std::isnan(x) ? 0 : 1);
  }
  return m;
}

Members All(size_t rows, size_t cols) {
  Members c;
  for (uint32_t i = 0; i < rows; ++i) c.rows.push_back(i);
  for (uint32_t j = 0; j < cols; ++j) c.cols.push_back(j);
  return c;
}

void PerfectShiftClusterHasZeroResidue() {
  // d_ij = 10 + a_i + b_j with a = (0, 3, -2, 7), b = (1, 4, 0).
  const double a[] = {0, 3, -2, 7};
  const double b[] = {1, 4, 0};
  std::vector<double> v;
  for (double ai : a) {
    for (double bj : b) v.push_back(10 + ai + bj);
  }
  OwnedMatrix m = Make(4, 3, v);
  ClusterFacts f = perfbench::Recompute(m.View(), All(4, 3));
  EXPECT(f.volume == 12);
  EXPECT_EQ_DOUBLE(f.residue, 0.0);
  // Bases: d_IJ = 10 + mean(a) + mean(b) = 10 + 2 + 5/3.
  EXPECT_EQ_DOUBLE(f.base, 10 + 2 + 5.0 / 3);
  EXPECT_EQ_DOUBLE(f.row_bases[3], 10 + 7 + 5.0 / 3);
  EXPECT_EQ_DOUBLE(f.col_bases[1], 10 + 2 + 4);
}

void ThreeByThreeByHand() {
  // Row means 2, 6, 7; column means 4, 5, 6; cluster mean 5.
  // Residues d - row - col + 5:  0  0  0 / -1 -1  2 / 1  1 -2.
  OwnedMatrix m = Make(3, 3, {1, 2, 3, 4, 5, 9, 7, 8, 6});
  ClusterFacts f = perfbench::Recompute(m.View(), All(3, 3));
  EXPECT(f.volume == 9);
  EXPECT_EQ_DOUBLE(f.base, 5.0);
  EXPECT_EQ_DOUBLE(f.row_bases[1], 6.0);
  EXPECT_EQ_DOUBLE(f.col_bases[2], 6.0);
  EXPECT_EQ_DOUBLE(f.residue, 8.0 / 9);

  // A sub-cluster: rows {1, 2} x columns {0, 2} = [4 9; 7 6]. Row means
  // 6.5, 6.5; column means 5.5, 7.5; base 6.5; every |r| = 1.5.
  Members sub{{1, 2}, {0, 2}};
  ClusterFacts s = perfbench::Recompute(m.View(), sub);
  EXPECT(s.volume == 4);
  EXPECT_EQ_DOUBLE(s.residue, 1.5);
}

void ThreeByThreeWithMissingEntry() {
  // (2,2) missing. Row means 2, 6, 7.5; column means 4, 5, 6; base
  // 39/8. |r|: 1/8 x3, 9/8, 9/8, 15/8, 3/8 x2 -> sum 21/4 over 8 entries.
  const double na = std::nan("");
  OwnedMatrix m = Make(3, 3, {1, 2, 3, 4, 5, 9, 7, 8, na});
  Grid g = m.View();
  ClusterFacts f = perfbench::Recompute(g, All(3, 3));
  EXPECT(f.volume == 8);
  EXPECT_EQ_DOUBLE(f.base, 39.0 / 8);
  EXPECT_EQ_DOUBLE(f.row_bases[2], 7.5);
  EXPECT_EQ_DOUBLE(f.residue, 21.0 / 32);

  // Row 2 and column 2 have 2 of 3 entries: occupied at alpha 0.6
  // (2 >= 1.8), not at 0.7 (2 < 2.1).
  EXPECT(perfbench::AlphaOccupied(g, All(3, 3), 0.6));
  EXPECT(!perfbench::AlphaOccupied(g, All(3, 3), 0.7));

  // Truth covers rows {0,1} x cols {0,1}; found covers rows {1,2} x
  // cols {0,1}: two shared entries of four on each side.
  perfbench::Match q = perfbench::PlantedMatch(g, {Members{{0, 1}, {0, 1}}},
                                               {Members{{1, 2}, {0, 1}}});
  EXPECT_EQ_DOUBLE(q.recall, 0.5);
  EXPECT_EQ_DOUBLE(q.precision, 0.5);
  // The missing entry (2,2) counts for neither side.
  q = perfbench::PlantedMatch(g, {All(3, 3)}, {Members{{2}, {1, 2}}});
  EXPECT_EQ_DOUBLE(q.recall, 1.0 / 8);
  EXPECT_EQ_DOUBLE(q.precision, 1.0);
}

void ParsersAndFingerprint() {
  const double na = std::nan("");
  OwnedMatrix want = Make(2, 3, {1.5, na, -3, 0.25, 7, na});
  {
    std::ofstream csv("checker_test_tmp.csv");
    csv << "1.5,NA,-3\n0.25,7,\n";
    std::ofstream tri("checker_test_tmp.txt");
    tri << "0,0,1.5\n1,1,7\n0,2,-3\n1,0,0.25\n";
  }
  uint64_t h = perfbench::Fingerprint(want.View());
  EXPECT(perfbench::Fingerprint(
             perfbench::ParseCsvFile("checker_test_tmp.csv").View()) == h);
  EXPECT(perfbench::Fingerprint(
             perfbench::ParseTriplesFile("checker_test_tmp.txt", 2, 3)
                 .View()) == h);
  OwnedMatrix changed = want;
  changed.values[0] = 1.5000000000000002;
  EXPECT(perfbench::Fingerprint(changed.View()) != h);
  changed = want;
  changed.mask[1] = 1;
  EXPECT(perfbench::Fingerprint(changed.View()) != h);

  std::vector<Members> clusters = {{{0, 4, 9}, {1, 2}}, {{3}, {0}}};
  perfbench::WriteMembersFile(clusters, "checker_test_tmp.txt");
  std::vector<Members> back =
      perfbench::ReadMembersFile("checker_test_tmp.txt");
  EXPECT(back.size() == 2 && back[0].rows == clusters[0].rows &&
         back[0].cols == clusters[0].cols && back[1].rows == clusters[1].rows &&
         back[1].cols == clusters[1].cols);
  std::remove("checker_test_tmp.csv");
  std::remove("checker_test_tmp.txt");
}

}  // namespace

int main() {
  PerfectShiftClusterHasZeroResidue();
  ThreeByThreeByHand();
  ThreeByThreeWithMissingEntry();
  ParsersAndFingerprint();
  if (failures == 0) std::printf("checker_test: all cases passed\n");
  return failures == 0 ? 0 : 1;
}
