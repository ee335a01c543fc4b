// GainMemo: epoch-stamped, size-budgeted memoization of after-toggle
// residue evaluations, the second half of this codebase's gain-kernel
// story (DESIGN.md "The gain kernel"; the first half is the lane-split
// scan in src/core/residue.cc).
//
// FLOC evaluates the residue a cluster would have after toggling each
// row/column -- (N + M) x k evaluations per determination sweep, each an
// O(volume) scan -- and then, with fresh_gains_at_apply, re-decides
// every entity once more during the apply sweep. Most of those repeat
// evaluations are against clusters that have not changed since the
// evaluation was first made: the apply sweep mutates one cluster per
// performed action, leaving the other k-1 exactly as the determination
// sweep saw them.
//
// The memo exploits that. It holds one Entry per (entity, cluster) pair
// storing the after-toggle residue and post-toggle volume, stamped with
// the ClusterWorkspace membership epoch (cluster_workspace.h) the
// evaluation was made at. A lookup is valid exactly when the stored
// epoch equals the cluster's live epoch: epochs are process-unique and
// advance on every mutation, so epoch equality guarantees the
// membership -- and the incremental stats bits the scan reads -- are
// unchanged, which makes a cache hit *bit-identical* to the recompute
// (audit mode verifies this, see BestActionFor in gain_determiner.cc).
//
// Only the pure function (membership -> after-toggle residue/volume) is
// cached. Gains are always re-derived from the caller's current score
// vector, and constraint-block checks always run fresh: both depend on
// state outside the one cluster's membership (other clusters' scores,
// the overlap/coverage tracker) that the epoch does not cover.
//
// --- The byte budget (MERCI's --memory_ratio idea, see ROADMAP) ---
//
// Unbounded, the table costs (rows + cols) x clusters x sizeof(Entry)
// bytes per job -- enough to OOM a server running thousands of queued
// jobs. Configure() therefore accepts a byte budget; when the full
// table would exceed it, only a *subset of clusters is resident*: each
// resident cluster owns one table column ("stripe") of rows + cols
// entries, Slot() returns nullptr for non-resident clusters (callers
// then simply recompute, exactly as with no memo), and Rebalance()
// re-picks the resident set by *churn heat* -- evicting the clusters
// that mutate most, because every mutation advances their epoch and
// invalidates their entries anyway, so caching them buys the fewest
// hits per byte. Residency can never change results: an entry is only
// ever served when its epoch matches, and epoch equality makes the hit
// bit-identical to the recompute regardless of which clusters happen to
// be cached (tests/session_test.cc pins this; audit mode cross-checks
// every hit).
//
// Thread-safety -- DC_LOCK_FREE: no atomics and no locks, by
// construction. The determination sweep's shards write disjoint entity
// ranges (entries are laid out entity-major, matching the engine's
// shard-stable partitioning of the entity axis -- engine::ShardOf), so
// parallel sweeps never touch the same Entry; the coordinator's
// join-side mutex acquire in ThreadPool::ParallelFor publishes every
// shard's writes before anyone reads them. The sequential apply sweep
// then reads/writes after the pool has joined, and results stay
// bit-identical at any thread count. Rebalance() runs only on the
// coordinating thread between sweeps. Clang TSA cannot express a
// disjoint-ranges protocol, hence this comment carries the argument
// (tools/lint/dclint.py rule `lock-free-comment` keeps it present).
#ifndef DELTACLUS_CORE_GAIN_MEMO_H_
#define DELTACLUS_CORE_GAIN_MEMO_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace deltaclus {

class GainMemo {
 public:
  struct Entry {
    /// Membership epoch of the cluster at evaluation time; 0 = never
    /// filled (ClusterWorkspace epochs start at 1). With kBoundTag set,
    /// the entry holds a lower bound instead of the exact residue.
    uint64_t epoch = 0;
    /// Residue the cluster would have after toggling this entity (or,
    /// under kBoundTag, ResidueEngine's lower bound on it).
    double after_residue = 0.0;
    /// Post-toggle volume (feeds the objective's volume term).
    size_t new_volume = 0;
  };

  /// Epoch tag of an entry caching the after-toggle residue *bound*
  /// (ResidueEngine::ResidueLowerBoundAfterToggle*), a pure function of
  /// the membership just like the exact residue. A pair the bound
  /// settled keeps its bound here until its cluster changes; an exact
  /// scan overwrites it. Epochs never reach 2^63.
  static constexpr uint64_t kBoundTag = uint64_t{1} << 63;

  GainMemo() = default;

  /// Sizes the table for a rows x cols matrix and `clusters` clusters and
  /// clears every entry. Must be called before Slot(). `budget_bytes`
  /// caps the table: 0 keeps every cluster resident (the unbounded
  /// pre-budget behaviour); otherwise the largest cluster count whose
  /// stripes fit is resident, initially clusters 0..resident-1, and
  /// Rebalance() re-picks the set by heat between sweeps. A budget too
  /// small for even one stripe leaves the table empty (every lookup
  /// recomputes).
  void Configure(size_t rows, size_t cols, size_t clusters,
                 size_t budget_bytes = 0) {
    rows_ = rows;
    entities_ = rows + cols;
    clusters_ = clusters;
    budget_bytes_ = budget_bytes;
    resident_ = clusters;
    if (budget_bytes > 0) {
      size_t stripe_bytes = entities_ * sizeof(Entry);
      resident_ = std::min(clusters, stripe_bytes == 0
                                         ? clusters
                                         : budget_bytes / stripe_bytes);
    }
    cluster_slot_.assign(clusters, -1);
    slot_cluster_.assign(resident_, 0);
    for (size_t c = 0; c < resident_; ++c) {
      cluster_slot_[c] = static_cast<int32_t>(c);
      slot_cluster_[c] = c;
    }
    entries_.assign(entities_ * resident_, Entry{});
    evictions_ = 0;
  }

  /// Drops every entry (keeps the configured shape and residency).
  void Clear() { entries_.assign(entries_.size(), Entry{}); }

  bool configured() const { return !entries_.empty(); }

  /// The entry for (row index | column index, cluster), or nullptr when
  /// the cluster is not resident under the byte budget (callers
  /// recompute, which is bit-identical). Entity-major layout: one
  /// contiguous stripe of resident-cluster entries per entity, so the
  /// per-entity cluster loop is stride-1 and parallel shards over the
  /// entity axis own disjoint ranges.
  Entry* Slot(bool is_row, size_t index, size_t cluster) {
    size_t entity = is_row ? index : rows_ + index;
    if (resident_ == clusters_) {
      // Unbounded (or budget covers everything): cluster -> slot is the
      // identity, so skip the indirection -- this is the determination
      // scan's innermost lookup and the branch predicts perfectly.
      return &entries_[entity * clusters_ + cluster];
    }
    int32_t slot = cluster_slot_[cluster];
    if (slot < 0) return nullptr;
    return &entries_[entity * resident_ + static_cast<size_t>(slot)];
  }

  /// Re-picks the resident cluster set from per-cluster churn `heat`
  /// (size clusters): the resident slots go to the coolest clusters --
  /// ties broken by lower cluster index -- because a frequently-mutated
  /// cluster's entries are invalidated by its own epoch advances before
  /// they can be served. Stripes that change owner are cleared (their
  /// stale epochs could never match anyway; clearing keeps audits and
  /// dumps unambiguous). Deterministic: depends only on `heat`. Must be
  /// called from the coordinating thread between sweeps. No-op when the
  /// table is unbounded or empty.
  void Rebalance(const std::vector<uint64_t>& heat) {
    if (resident_ == 0 || resident_ >= clusters_) return;
    // Coolest `resident_` clusters, ties by index.
    std::vector<size_t> by_heat(clusters_);
    for (size_t c = 0; c < clusters_; ++c) by_heat[c] = c;
    std::sort(by_heat.begin(), by_heat.end(), [&](size_t a, size_t b) {
      if (heat[a] != heat[b]) return heat[a] < heat[b];
      return a < b;
    });
    std::vector<uint8_t> keep(clusters_, 0);
    for (size_t r = 0; r < resident_; ++r) keep[by_heat[r]] = 1;
    // Evict residents that fell out of the set, freeing their slots.
    std::vector<size_t> free_slots;
    for (size_t slot = 0; slot < resident_; ++slot) {
      size_t owner = slot_cluster_[slot];
      if (keep[owner] == 0 || cluster_slot_[owner] != static_cast<int32_t>(slot)) {
        free_slots.push_back(slot);
        if (cluster_slot_[owner] == static_cast<int32_t>(slot)) {
          cluster_slot_[owner] = -1;
          ++evictions_;
        }
      }
    }
    // Admit the kept clusters without a slot, in ascending cluster
    // order, into the freed slots in ascending slot order.
    size_t next_free = 0;
    for (size_t c = 0; c < clusters_ && next_free < free_slots.size(); ++c) {
      if (keep[c] == 0 || cluster_slot_[c] >= 0) continue;
      size_t slot = free_slots[next_free++];
      cluster_slot_[c] = static_cast<int32_t>(slot);
      slot_cluster_[slot] = c;
      for (size_t entity = 0; entity < entities_; ++entity) {
        entries_[entity * resident_ + slot] = Entry{};
      }
    }
  }

  /// Bytes the entry table currently occupies; always <= budget_bytes()
  /// when a budget is set (DC_CHECKed by the session in audit mode).
  size_t bytes() const { return entries_.size() * sizeof(Entry); }
  /// Configured byte budget; 0 = unbounded.
  size_t budget_bytes() const { return budget_bytes_; }
  /// Number of clusters with a resident stripe.
  size_t resident_clusters() const { return resident_; }
  /// Stripes evicted by Rebalance() since Configure().
  uint64_t evictions() const { return evictions_; }

 private:
  size_t rows_ = 0;
  size_t entities_ = 0;
  size_t clusters_ = 0;
  size_t resident_ = 0;
  size_t budget_bytes_ = 0;
  uint64_t evictions_ = 0;
  /// cluster -> stripe slot, -1 when not resident.
  std::vector<int32_t> cluster_slot_;
  /// stripe slot -> owning cluster.
  std::vector<size_t> slot_cluster_;
  std::vector<Entry> entries_;
};

}  // namespace deltaclus

#endif  // DELTACLUS_CORE_GAIN_MEMO_H_
