#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

[[noreturn]] void Fail(const std::string& path, size_t line,
                       const std::string& what) {
  throw std::runtime_error(path + ":" + std::to_string(line) + ": " + what);
}

double ParseNumber(const std::string& field, const std::string& path,
                   size_t line) {
  char* end = nullptr;
  double v = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0' || !std::isfinite(v)) {
    Fail(path, line, "not a number: '" + field + "'");
  }
  return v;
}

std::vector<std::string> SplitCommas(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) fields.push_back(field);
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  // FNV-1a over the eight bytes of v.
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Grid OwnedMatrix::View() const {
  Grid g;
  g.rows = rows;
  g.cols = cols;
  g.values.resize(rows);
  g.mask.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    g.values[i] = values.data() + i * cols;
    g.mask[i] = mask.data() + i * cols;
  }
  return g;
}

OwnedMatrix ParseCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  OwnedMatrix m;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitCommas(line);
    if (m.rows == 0) m.cols = fields.size();
    if (fields.size() != m.cols) Fail(path, line_no, "ragged row");
    for (const std::string& f : fields) {
      bool missing = f.empty() || f == "NA";
      m.values.push_back(missing ? 0.0 : ParseNumber(f, path, line_no));
      m.mask.push_back(missing ? 0 : 1);
    }
    ++m.rows;
  }
  return m;
}

OwnedMatrix ParseTriplesFile(const std::string& path, size_t rows,
                             size_t cols) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  OwnedMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.values.assign(rows * cols, 0.0);
  m.mask.assign(rows * cols, 0);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::vector<std::string> f = SplitCommas(line);
    if (f.size() != 3) Fail(path, line_no, "expected row,col,value");
    double r = ParseNumber(f[0], path, line_no);
    double c = ParseNumber(f[1], path, line_no);
    if (r < 0 || c < 0 || r >= static_cast<double>(rows) ||
        c >= static_cast<double>(cols) || r != std::floor(r) ||
        c != std::floor(c)) {
      Fail(path, line_no, "index out of range");
    }
    size_t at = static_cast<size_t>(r) * cols + static_cast<size_t>(c);
    m.values[at] = ParseNumber(f[2], path, line_no);
    m.mask[at] = 1;
  }
  return m;
}

uint64_t Fingerprint(const Grid& grid) {
  uint64_t h = 14695981039346656037ull;
  h = Mix(h, grid.rows);
  h = Mix(h, grid.cols);
  for (size_t i = 0; i < grid.rows; ++i) {
    for (size_t j = 0; j < grid.cols; ++j) {
      if (!grid.Has(i, j)) {
        h = Mix(h, 0);
        continue;
      }
      uint64_t bits = 0;
      double v = grid.At(i, j);
      std::memcpy(&bits, &v, sizeof bits);
      h = Mix(Mix(h, 1), bits);
    }
  }
  return h;
}

ClusterFacts Recompute(const Grid& grid, const Members& cluster) {
  ClusterFacts f;
  const size_t nr = cluster.rows.size();
  const size_t nc = cluster.cols.size();
  std::vector<long double> row_sum(nr, 0.0L), col_sum(nc, 0.0L);
  std::vector<size_t> row_n(nr, 0), col_n(nc, 0);
  long double total = 0.0L;
  for (size_t a = 0; a < nr; ++a) {
    for (size_t b = 0; b < nc; ++b) {
      size_t i = cluster.rows[a];
      size_t j = cluster.cols[b];
      if (!grid.Has(i, j)) continue;
      long double v = grid.At(i, j);
      row_sum[a] += v;
      col_sum[b] += v;
      total += v;
      ++row_n[a];
      ++col_n[b];
      ++f.volume;
    }
  }
  if (f.volume == 0) return f;
  long double base = total / static_cast<long double>(f.volume);
  std::vector<long double> rb(nr, 0.0L), cb(nc, 0.0L);
  for (size_t a = 0; a < nr; ++a) {
    if (row_n[a] > 0) rb[a] = row_sum[a] / static_cast<long double>(row_n[a]);
  }
  for (size_t b = 0; b < nc; ++b) {
    if (col_n[b] > 0) cb[b] = col_sum[b] / static_cast<long double>(col_n[b]);
  }
  long double abs_sum = 0.0L;
  for (size_t a = 0; a < nr; ++a) {
    for (size_t b = 0; b < nc; ++b) {
      size_t i = cluster.rows[a];
      size_t j = cluster.cols[b];
      if (!grid.Has(i, j)) continue;
      abs_sum += std::fabs(static_cast<long double>(grid.At(i, j)) - rb[a] -
                           cb[b] + base);
    }
  }
  f.base = static_cast<double>(base);
  f.row_bases.assign(rb.begin(), rb.end());
  f.col_bases.assign(cb.begin(), cb.end());
  f.residue = static_cast<double>(abs_sum / static_cast<long double>(f.volume));
  return f;
}

bool AlphaOccupied(const Grid& grid, const Members& cluster, double alpha) {
  const double nr = static_cast<double>(cluster.rows.size());
  const double nc = static_cast<double>(cluster.cols.size());
  for (uint32_t i : cluster.rows) {
    size_t n = 0;
    for (uint32_t j : cluster.cols) n += grid.Has(i, j);
    if (static_cast<double>(n) < alpha * nc) return false;
  }
  for (uint32_t j : cluster.cols) {
    size_t n = 0;
    for (uint32_t i : cluster.rows) n += grid.Has(i, j);
    if (static_cast<double>(n) < alpha * nr) return false;
  }
  return true;
}

Match PlantedMatch(const Grid& grid, const std::vector<Members>& truth,
                   const std::vector<Members>& found) {
  // Bit 0: covered by the truth; bit 1: covered by a found cluster.
  std::vector<uint8_t> cover(grid.rows * grid.cols, 0);
  auto mark = [&](const std::vector<Members>& clusters, uint8_t bit) {
    for (const Members& c : clusters) {
      for (uint32_t i : c.rows) {
        for (uint32_t j : c.cols) {
          if (grid.Has(i, j)) cover[i * grid.cols + j] |= bit;
        }
      }
    }
  };
  mark(truth, 1);
  mark(found, 2);
  size_t in_truth = 0, in_found = 0, both = 0;
  for (uint8_t c : cover) {
    in_truth += (c & 1) != 0;
    in_found += (c & 2) != 0;
    both += c == 3;
  }
  Match m;
  m.recall = in_truth == 0 ? 0.0 : static_cast<double>(both) / in_truth;
  m.precision = in_found == 0 ? 0.0 : static_cast<double>(both) / in_found;
  return m;
}

void WriteMembersFile(const std::vector<Members>& clusters,
                      const std::string& path) {
  std::ofstream out(path);
  for (const Members& c : clusters) {
    for (uint32_t i : c.rows) out << i << ' ';
    out << '|';
    for (uint32_t j : c.cols) out << ' ' << j;
    out << '\n';
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<Members> ReadMembersFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<Members> clusters;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    size_t bar = line.find('|');
    if (bar == std::string::npos) Fail(path, line_no, "missing '|'");
    Members c;
    std::istringstream rows(line.substr(0, bar));
    std::istringstream cols(line.substr(bar + 1));
    for (uint32_t id = 0; rows >> id;) c.rows.push_back(id);
    for (uint32_t id = 0; cols >> id;) c.cols.push_back(id);
    clusters.push_back(std::move(c));
  }
  return clusters;
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

}  // namespace perfbench
