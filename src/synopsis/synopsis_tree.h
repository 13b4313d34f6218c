#ifndef CINDERELLA_SYNOPSIS_SYNOPSIS_TREE_H_
#define CINDERELLA_SYNOPSIS_SYNOPSIS_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "synopsis/synopsis.h"

namespace cinderella {

/// Word-wise intersection test between two raw bitset spans; the
/// Definition-1 pruning test without materializing Synopsis objects.
inline bool SynopsisWordsIntersect(const uint64_t* a, size_t an,
                                   const uint64_t* b, size_t bn) {
  const size_t common = an < bn ? an : bn;
  for (size_t i = 0; i < common; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

/// One node of the synopsis tree. Leaves (empty `children`) carry the
/// synopsis of a single partition; internal nodes carry the word-wise OR
/// of every live leaf below them plus the live-leaf count. Nodes are
/// immutable once shared through SynopsisTree::Share() — the writer clones
/// any shared node before mutating it (copy-on-write), so snapshot readers
/// walk their pinned root without locks.
struct SynopsisTreeNode {
  Synopsis set;       // Leaf: the partition synopsis. Internal: OR of live leaves.
  uint64_t live = 0;  // Live leaves in this subtree (1 for a leaf).
  std::vector<std::shared_ptr<SynopsisTreeNode>> children;  // Empty => leaf.

  bool is_leaf() const { return children.empty(); }
};

/// An immutable, shareable picture of a SynopsisTree: the root pointer plus
/// the geometry needed to descend it. Produced by SynopsisTree::Share()
/// under the writer's lock; readers may then descend `root` concurrently
/// with further writer mutations, because the writer never mutates a node
/// reachable from a shared root (it clones instead). Default-constructed
/// snapshots are invalid (no tree attached).
class SynopsisTreeSnapshot {
 public:
  SynopsisTreeSnapshot() = default;
  SynopsisTreeSnapshot(std::shared_ptr<const SynopsisTreeNode> root,
                       size_t fanout, size_t height, uint64_t live)
      : root_(std::move(root)), fanout_(fanout), height_(height), live_(live) {}

  /// True when this snapshot came from a tree (the tree may still be
  /// empty: valid() && live() == 0 && !root()).
  bool valid() const { return fanout_ != 0; }
  uint64_t live() const { return live_; }
  size_t fanout() const { return fanout_; }
  size_t height() const { return height_; }
  const SynopsisTreeNode* root() const { return root_.get(); }

  /// Union synopsis over every live partition (the root's OR set), or
  /// nullptr when the tree is empty.
  const Synopsis* root_union() const { return root_ ? &root_->set : nullptr; }

  /// Invokes `fn(uint64_t key)` for every live leaf whose synopsis
  /// intersects the query words, in ascending key order, skipping whole
  /// subtrees whose union misses the query. Empty query words match
  /// nothing.
  template <typename Fn>
  void ForEachCandidate(const uint64_t* qwords, size_t qn, Fn&& fn) const {
    if (root_ && qn > 0) DescendCandidates(root_.get(), height_, 0, qwords, qn, fn);
  }

  /// Invokes `fn(uint64_t key, const Synopsis&)` for every live leaf in
  /// ascending key order.
  template <typename Fn>
  void ForEachLeaf(Fn&& fn) const {
    if (root_) DescendLeaves(root_.get(), height_, 0, fn);
  }

 private:
  template <typename Fn>
  void DescendCandidates(const SynopsisTreeNode* node, size_t height,
                         uint64_t base, const uint64_t* qwords, size_t qn,
                         Fn&& fn) const {
    const std::vector<uint64_t>& set = node->set.words();
    if (!SynopsisWordsIntersect(set.data(), set.size(), qwords, qn)) return;
    if (node->is_leaf()) {
      fn(base);
      return;
    }
    uint64_t span = 1;
    for (size_t h = 1; h < height; ++h) span *= fanout_;
    for (size_t i = 0; i < node->children.size(); ++i) {
      if (node->children[i] == nullptr) continue;
      DescendCandidates(node->children[i].get(), height - 1,
                        base + static_cast<uint64_t>(i) * span, qwords, qn, fn);
    }
  }

  template <typename Fn>
  void DescendLeaves(const SynopsisTreeNode* node, size_t height,
                     uint64_t base, Fn&& fn) const {
    if (node->is_leaf()) {
      fn(base, node->set);
      return;
    }
    uint64_t span = 1;
    for (size_t h = 1; h < height; ++h) span *= fanout_;
    for (size_t i = 0; i < node->children.size(); ++i) {
      if (node->children[i] == nullptr) continue;
      DescendLeaves(node->children[i].get(), height - 1,
                    base + static_cast<uint64_t>(i) * span, fn);
    }
  }

  std::shared_ptr<const SynopsisTreeNode> root_;
  size_t fanout_ = 0;  // 0 marks an invalid (detached) snapshot.
  size_t height_ = 0;
  uint64_t live_ = 0;
};

/// Fixed-fanout synopsis tree over the partition-id key space (the
/// JanusAQP partition-tree idea applied to Cinderella synopses): leaves
/// are partitions, internal nodes hold the word-wise OR of their live
/// leaves, so query-time pruning descends only subtrees whose union can
/// still intersect the probe. The tree is
/// *implicit* in the key: a node at height h covers fanout^h consecutive
/// keys and key k lives under child (k / fanout^(h-1)) % fanout, so no
/// per-node key ranges are stored and a leaf's key is recomputed from the
/// descent path.
///
/// Persistence: Share() hands out the current root as an immutable
/// snapshot; every later mutation clones the shared spine it touches
/// (copy-on-write at node granularity), so snapshots stay frozen while
/// the writer keeps amortized O(fanout · height) per update.
///
/// Thread-safety: none. Callers serialize mutations and Share() under
/// their own lock (VersionedTable's publish lock); snapshot *reads* are
/// lock-free by construction.
class SynopsisTree {
 public:
  struct Stats {
    uint64_t upserts = 0;
    uint64_t removes = 0;
    uint64_t fast_merges = 0;   // Superset upserts: OR-ed up, no re-OR.
    uint64_t node_reors = 0;    // Dirty internal nodes rebuilt by re-OR.
    uint64_t nodes_copied = 0;  // COW clones taken for snapshot isolation.
    uint64_t collapses = 0;     // Zero-live internal nodes collapsed away.
  };

  /// `fanout` 0 resolves from the CINDERELLA_TREE_FANOUT environment
  /// variable (default 16, clamped to [2, 256]), mirroring the
  /// scan_threads/insert_shards convention.
  explicit SynopsisTree(size_t fanout = 0);

  /// Resolved fanout for a requested value (0 = environment / default).
  static size_t ResolveFanout(size_t fanout);

  /// Inserts or replaces the leaf for `key`. Growing upserts (new synopsis
  /// a superset of the old) OR the new set into the ancestor spine; a
  /// shrinking replace re-ORs each ancestor from its children (dirty
  /// re-OR). Identical replacement is a no-op detected without cloning.
  void Upsert(uint64_t key, const Synopsis& synopsis);

  /// Upsert from raw bitset words (trailing zero words tolerated).
  void UpsertWords(uint64_t key, const uint64_t* words, size_t num_words);

  /// Removes the leaf for `key` (no-op if absent). Ancestors whose
  /// live-leaf count drops to zero are collapsed (their slot nulled) so
  /// the descent never visits an empty subtree; surviving ancestors are
  /// re-OR-ed. An emptied tree resets to the empty state.
  void Remove(uint64_t key);

  /// Replaces the whole tree in one bottom-up pass from (key, synopsis)
  /// leaf pairs (keys must be distinct; the pointers must stay valid for
  /// the duration of the call). Produces the identical tree a Clear()
  /// followed by one Upsert per pair would, but computes each internal
  /// union once instead of re-OR-ing per leaf — O(total leaf words)
  /// instead of O(leaves · height). Snapshot load and full view rebuilds
  /// use this.
  void BulkBuild(std::vector<std::pair<uint64_t, const Synopsis*>> leaves);

  /// Current root as an immutable snapshot (see SynopsisTreeSnapshot).
  SynopsisTreeSnapshot Share();

  uint64_t live_count() const { return root_ ? root_->live : 0; }
  size_t fanout() const { return fanout_; }
  /// Levels above the leaves (0 when empty; >= 1 otherwise — the root is
  /// always an internal node).
  size_t depth() const { return height_; }
  const Stats& stats() const { return stats_; }

  /// Internal (non-leaf) node count, by walk.
  size_t internal_node_count() const;

  /// Union synopsis over every live partition, or nullptr when empty.
  const Synopsis* root_union() const {
    return root_ ? &root_->set : nullptr;
  }

  /// Verifies the structural invariants — live counts sum bottom-up, no
  /// zero-live or all-null internal node survives, every internal set is
  /// exactly the OR of its children. Returns false and fills `*error`
  /// (when non-null) on the first violation.
  bool CheckInvariants(std::string* error) const;

 private:
  using NodePtr = std::shared_ptr<SynopsisTreeNode>;

  /// Drops every leaf and resets to the empty state. Counters survive.
  void Clear();

  /// Capacity of the current root: fanout_^height_ keys (saturating).
  uint64_t Capacity() const;

  /// Grows the root (wrapping the old root as child 0) until `key` fits.
  void EnsureRootCovers(uint64_t key);

  /// Returns an exclusively-owned clone-or-self of `node` (clones when the
  /// node is shared with a snapshot).
  NodePtr Exclusive(const NodePtr& node);

  /// Recursive worker of BulkBuild: builds the subtree at `height`
  /// covering keys [base, base + fanout^height), consuming the sorted
  /// leaves at *pos that fall inside the range. Returns nullptr for an
  /// empty range.
  NodePtr BuildSubtree(
      size_t height, uint64_t base,
      const std::vector<std::pair<uint64_t, const Synopsis*>>& leaves,
      size_t* pos);

  /// Rebuilds an internal node's set as the OR of its children.
  void ReOr(SynopsisTreeNode* node);

  bool CheckNode(const SynopsisTreeNode* node, size_t height,
                 std::string* error) const;

  NodePtr root_;       // Null when the tree is empty.
  size_t fanout_;
  size_t height_ = 0;  // Internal levels; key depth of every leaf.
  Stats stats_;
};

}  // namespace cinderella

#endif  // CINDERELLA_SYNOPSIS_SYNOPSIS_TREE_H_
