#include "src/core/cluster_workspace.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/core/residue_kernels.h"
#include "src/obs/metrics.h"

namespace deltaclus {

namespace {

// Full gather rebuilds of a stale pane (the compaction path included).
obs::Counter* PaneRebuildsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("floc.pane.rebuilds");
  return counter;
}

// Single-toggle patches applied in place of a rebuild.
obs::Counter* PanePatchesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("floc.pane.patches");
  return counter;
}

// Patches declined -- dead fraction or physical capacity over threshold
// -- leaving the pane stale so the next EnsurePane() performs a
// compacting rebuild.
obs::Counter* PaneCompactionsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("floc.pane.compactions");
  return counter;
}

// Physical slack a rebuild leaves for future appends. Proportional so
// big clusters absorb proportionally more toggles between compactions;
// the +8 floor keeps small clusters patchable at all.
size_t PaneSlack(size_t n) { return n / 8 + 8; }

// Logical deletions tolerated before a patch declines in favor of a
// compacting rebuild: half the live extent, with the same small floor.
bool DeadOverThreshold(size_t dead, size_t live) {
  return dead > live / 2 + 8;
}

// One member row's specified entries folded into its own line stats and
// into the per-column stats. The row's running sums are split over four
// lanes by column position, breaking the add-latency chain that would
// otherwise bound the pass (bound stats need no particular summation
// order). Unspecified entries are selected away, so whatever the pane
// holds there never reaches a sum.
template <bool kSquared>
void AccumulateBoundRow(const double* values, const uint8_t* mask,
                        const double* col_bases, size_t n, double row_base,
                        double cluster_base, LineResidueStats& cols,
                        LineResidueStats& rows, size_t pr, double& max_abs) {
  double mass[4] = {0.0, 0.0, 0.0, 0.0};
  double sum[4] = {0.0, 0.0, 0.0, 0.0};
  double peak[4] = {max_abs, max_abs, max_abs, max_abs};
  uint32_t pos = 0;
  uint32_t neg = 0;
  for (size_t idx = 0; idx < n; ++idx) {
    bool specified = mask == nullptr || mask[idx] != 0;
    double v = values[idx];
    double r = EntryResidue(v, row_base, col_bases[idx], cluster_base);
    size_t lane = idx & 3;
    peak[lane] = std::max(peak[lane], specified ? std::fabs(v) : 0.0);
    if (kSquared) {
      double rr = specified ? r : 0.0;
      double q = rr * rr;
      mass[lane] += q;
      sum[lane] += rr;
      cols.mass[idx] += q;
      cols.sum[idx] += rr;
    } else {
      double a = specified ? std::fabs(r) : 0.0;
      uint32_t p = specified && r > 0.0 ? 1 : 0;
      uint32_t m = specified && r < 0.0 ? 1 : 0;
      mass[lane] += a;
      pos += p;
      neg += m;
      cols.mass[idx] += a;
      cols.pos[idx] += p;
      cols.neg[idx] += m;
    }
  }
  max_abs = std::max(std::max(peak[0], peak[1]), std::max(peak[2], peak[3]));
  rows.mass[pr] = (mass[0] + mass[1]) + (mass[2] + mass[3]);
  if (kSquared) {
    rows.sum[pr] = (sum[0] + sum[1]) + (sum[2] + sum[3]);
  } else {
    rows.pos[pr] = pos;
    rows.neg[pr] = neg;
  }
}

// Sizes a line array for n lines and zeroes its residue accumulators.
void ResetLines(LineResidueStats& lines, size_t n, bool squared) {
  lines.base.resize(n);
  lines.grow.resize(n);
  lines.shrink.resize(n);
  lines.count.resize(n);
  lines.mass.assign(n, 0.0);
  if (squared) {
    lines.sum.assign(n, 0.0);
    lines.pos.clear();
    lines.neg.clear();
  } else {
    lines.sum.clear();
    lines.pos.assign(n, 0);
    lines.neg.assign(n, 0);
  }
}

void SetLine(LineResidueStats& lines, size_t t, double base, size_t count) {
  double n = static_cast<double>(count);
  lines.base[t] = base;
  lines.count[t] = static_cast<uint32_t>(count);
  lines.grow[t] = 1.0 / (n + 1.0);
  lines.shrink[t] = count > 1 ? 1.0 / (n - 1.0) : 0.0;
}

template <bool kSquared>
void FillBoundStats(const ClusterView& view, const PackedPane& pane,
                    ResidueBoundStats& out) {
  const ClusterStats& stats = view.stats();
  const auto& row_ids = view.cluster().row_ids();
  const auto& col_ids = view.cluster().col_ids();
  size_t n = col_ids.size();
  ResetLines(out.cols, n, kSquared);
  for (size_t idx = 0; idx < n; ++idx) {
    SetLine(out.cols, idx, stats.ColBase(col_ids[idx]),
            stats.ColCount(col_ids[idx]));
  }
  ResetLines(out.rows, row_ids.size(), kSquared);
  for (size_t pr = 0; pr < row_ids.size(); ++pr) {
    SetLine(out.rows, pr, stats.RowBase(row_ids[pr]),
            stats.RowCount(row_ids[pr]));
  }
  const double* col_bases = out.cols.base.data();
  double cluster_base = stats.ClusterBase();
  double max_abs = 0.0;
  for (size_t pr = 0; pr < row_ids.size(); ++pr) {
    // Fully specified rows skip the mask reads.
    const uint8_t* mask = out.rows.count[pr] == n ? nullptr : pane.MaskRow(pr);
    AccumulateBoundRow<kSquared>(pane.Row(pr), mask, col_bases, n,
                                 out.rows.base[pr], cluster_base, out.cols,
                                 out.rows, pr, max_abs);
  }
  out.max_abs_value = max_abs;
}

size_t SortedIndexOf(const std::vector<uint32_t>& ids, size_t id) {
  return static_cast<size_t>(
      std::lower_bound(ids.begin(), ids.end(), static_cast<uint32_t>(id)) -
      ids.begin());
}

}  // namespace

void ClusterWorkspace::RebuildPane() const {
  const DataMatrix& m = view_.matrix();
  const Cluster& c = view_.cluster();
  const auto& row_ids = c.row_ids();
  const auto& col_ids = c.col_ids();
  size_t n = col_ids.size();
  size_t rows = row_ids.size();
  size_t stride = n + PaneSlack(n);
  size_t row_capacity = rows + PaneSlack(rows);
  pane_.num_cols = n;
  pane_.phys_stride = stride;
  pane_.values.resize(row_capacity * stride);
  pane_.mask.resize(row_capacity * stride);
  pane_.row_slots.resize(rows);
  pane_.next_phys_row = rows;
  pane_.dead_rows = 0;
  for (size_t pr = 0; pr < rows; ++pr) {
    pane_.row_slots[pr] = static_cast<uint32_t>(pr);
    uint32_t i = row_ids[pr];
    const double* values = m.RowValues(i).data();
    const uint8_t* mask = m.RowMask(i).data();
    double* dst_values = pane_.values.data() + pr * stride;
    uint8_t* dst_mask = pane_.mask.data() + pr * stride;
    for (size_t idx = 0; idx < n; ++idx) {
      dst_values[idx] = values[col_ids[idx]];
      dst_mask[idx] = mask[col_ids[idx]];
    }
  }
  pane_epoch_ = epoch_;
  PaneRebuildsCounter()->Inc();
}

void ClusterWorkspace::RebuildBoundStats(CachedNormTag norm) const {
  const PackedPane& pane = EnsurePane();
  if (norm == CachedNormTag::kMeanSquared) {
    FillBoundStats<true>(view_, pane, bound_stats_);
  } else {
    FillBoundStats<false>(view_, pane, bound_stats_);
  }
  bound_norm_ = norm;
  bound_epoch_ = epoch_;
}

void ClusterWorkspace::PatchPaneRow(size_t i, bool removed) {
  PackedPane& pane = pane_;
  const auto& row_ids = view_.cluster().row_ids();  // post-toggle
  if (removed) {
    if (DeadOverThreshold(pane.dead_rows + 1, pane.row_slots.size())) {
      PaneCompactionsCounter()->Inc();
      return;
    }
    // i is absent post-toggle, so lower_bound lands on its old slot.
    size_t pr = SortedIndexOf(row_ids, i);
    pane.row_slots.erase(pane.row_slots.begin() +
                         static_cast<ptrdiff_t>(pr));
    ++pane.dead_rows;
  } else {
    size_t row_capacity =
        pane.phys_stride == 0 ? 0 : pane.values.size() / pane.phys_stride;
    if (pane.next_phys_row >= row_capacity) {
      PaneCompactionsCounter()->Inc();
      return;
    }
    // Gather the new row into a fresh physical row and splice its slot
    // in at the sorted logical position.
    const DataMatrix& m = view_.matrix();
    const auto& col_ids = view_.cluster().col_ids();
    size_t phys = pane.next_phys_row++;
    const double* values = m.RowValues(i).data();
    const uint8_t* mask = m.RowMask(i).data();
    double* dst_values = pane.values.data() + phys * pane.phys_stride;
    uint8_t* dst_mask = pane.mask.data() + phys * pane.phys_stride;
    for (size_t idx = 0; idx < pane.num_cols; ++idx) {
      uint32_t col = col_ids[idx];
      dst_values[idx] = values[col];
      dst_mask[idx] = mask[col];
    }
    size_t pr = SortedIndexOf(row_ids, i);
    pane.row_slots.insert(pane.row_slots.begin() + static_cast<ptrdiff_t>(pr),
                          static_cast<uint32_t>(phys));
  }
  pane_epoch_ = epoch_;
  PanePatchesCounter()->Inc();
}

void ClusterWorkspace::PatchPaneCol(size_t j, bool removed) {
  PackedPane& pane = pane_;
  const auto& col_ids = view_.cluster().col_ids();  // post-toggle
  // Both directions shift each live row's tail in place with memmove,
  // keeping the pane's columns one contiguous run: the moves are
  // contiguous bytes over rows the toggle's own evaluation just pulled
  // through cache, several times cheaper than a rebuild's scattered
  // matrix gathers -- and the read side never sees fragmentation. A
  // removal frees capacity, so only an addition can decline.
  if (removed) {
    // j is absent post-toggle, so lower_bound lands on its old position.
    size_t pc = SortedIndexOf(col_ids, j);
    size_t tail = pane.num_cols - pc - 1;
    for (uint32_t slot : pane.row_slots) {
      size_t base = slot * pane.phys_stride;
      std::memmove(pane.values.data() + base + pc,
                   pane.values.data() + base + pc + 1,
                   tail * sizeof(double));
      std::memmove(pane.mask.data() + base + pc,
                   pane.mask.data() + base + pc + 1, tail * sizeof(uint8_t));
    }
    --pane.num_cols;
  } else {
    if (pane.num_cols >= pane.phys_stride) {
      PaneCompactionsCounter()->Inc();
      return;
    }
    size_t pc = SortedIndexOf(col_ids, j);  // j's post-toggle position
    size_t tail = pane.num_cols - pc;
    // Open a hole at pc in every live row, then fill it stride-1 from
    // the matrix's column-major mirror.
    const DataMatrix& m = view_.matrix();
    const auto& row_ids = view_.cluster().row_ids();
    const double* col_values = m.ColValues(j).data();
    const uint8_t* col_mask = m.ColMask(j).data();
    for (size_t pr = 0; pr < row_ids.size(); ++pr) {
      size_t base = pane.row_slots[pr] * pane.phys_stride;
      std::memmove(pane.values.data() + base + pc + 1,
                   pane.values.data() + base + pc, tail * sizeof(double));
      std::memmove(pane.mask.data() + base + pc + 1,
                   pane.mask.data() + base + pc, tail * sizeof(uint8_t));
      pane.values[base + pc] = col_values[row_ids[pr]];
      pane.mask[base + pc] = col_mask[row_ids[pr]];
    }
    ++pane.num_cols;
  }
  pane_epoch_ = epoch_;
  PanePatchesCounter()->Inc();
}

}  // namespace deltaclus
