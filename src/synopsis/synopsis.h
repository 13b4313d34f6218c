#ifndef CINDERELLA_SYNOPSIS_SYNOPSIS_H_
#define CINDERELLA_SYNOPSIS_SYNOPSIS_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace cinderella {

/// Dense identifier of an attribute (entity-based mode) or of a workload
/// query (workload-based mode). Assigned by AttributeDictionary.
using AttributeId = uint32_t;

class Synopsis;

/// A non-owning view of a synopsis bitset: `num_words` little-endian
/// 64-bit words plus the cached cardinality. The MVCC snapshot layer
/// stores version synopses as packed words inside each version's buffer
/// (mvcc/partition_version.h) and hands them to the executor/estimator
/// through this view, so both the live path (Synopsis::span()) and the
/// packed path run the same pruning code.
struct SynopsisSpan {
  const uint64_t* words = nullptr;
  size_t num_words = 0;
  size_t cardinality = 0;

  size_t Count() const { return cardinality; }
  bool Empty() const { return num_words == 0; }

  /// Definition-1 pruning test against a full synopsis (declared below;
  /// defined after Synopsis).
  bool Intersects(const Synopsis& other) const;
};

/// A synopsis is a set over dictionary-encoded ids, stored as a dynamic
/// bitset (Section II of the paper: "Each partition is described in the
/// system catalog using a partition synopsis p, which lists the attributes
/// of the entities in the partition").
///
/// The Cinderella rating (Section IV) and the split-starter DIFF need four
/// set cardinalities; all are computed word-wise with popcount:
///   |a ∧ b|   IntersectCount
///   |a ∨ b|   UnionCount
///   |a ⊕ b|   XorCount        (DIFF between split starters)
///   |¬a ∧ b|  AndNotCount(b, a)  -- ids in b missing from a
///
/// Synopses grow automatically when an id beyond the current capacity is
/// added; all binary operations accept operands of different lengths.
class Synopsis {
 public:
  /// The three disjoint cardinalities the Section IV rating needs, from
  /// one fused word-wise pass (see RateCounts). The union cardinality is
  /// their sum; no separate pass required.
  struct RatingCounts {
    size_t intersect = 0;   // |this ∧ other|
    size_t only_this = 0;   // |this ∧ ¬other|
    size_t only_other = 0;  // |¬this ∧ other|

    size_t union_count() const { return intersect + only_this + only_other; }
  };

  /// Constructs an empty synopsis.
  Synopsis() = default;

  /// Constructs a synopsis containing the given ids.
  Synopsis(std::initializer_list<AttributeId> ids);

  /// Constructs a synopsis from a vector of ids.
  static Synopsis FromIds(const std::vector<AttributeId>& ids);

  /// Adds `id` to the set. Idempotent.
  void Add(AttributeId id);

  /// Removes `id` from the set if present.
  void Remove(AttributeId id);

  /// True if `id` is in the set.
  bool Contains(AttributeId id) const;

  /// Number of ids in the set. O(1): maintained incrementally by the
  /// mutators.
  size_t Count() const { return count_; }

  /// True if the set is empty. O(1): every mutator restores the
  /// no-trailing-zero-words invariant (ShrinkTrailingZeroWords), so the
  /// set is empty iff no words are stored.
  bool Empty() const { return words_.empty(); }

  /// Removes all ids.
  void Clear();

  /// Adds every id of `other` to this synopsis (set union in place).
  void UnionWith(const Synopsis& other);

  /// Unions raw bitset words (64 ids per word, little-endian) into this
  /// synopsis. Lets consumers of packed word arrays — MVCC version spans
  /// and the wire protocol's synopsis digests — build union synopses
  /// without materializing intermediate Synopsis objects.
  void UnionWithWords(const uint64_t* words, size_t num_words);

  /// |this ∧ other|
  size_t IntersectCount(const Synopsis& other) const;

  /// |this ∨ other|
  size_t UnionCount(const Synopsis& other) const;

  /// |this ⊕ other| — the paper's DIFF between entity synopses.
  size_t XorCount(const Synopsis& other) const;

  /// |this ∧ ¬other| — ids present here but missing from `other`.
  size_t AndNotCount(const Synopsis& other) const;

  /// Fused rating kernel: computes |this ∧ other|, |this ∧ ¬other| and
  /// |¬this ∧ other| from a single word-wise popcount pass over the
  /// common prefix (the exclusive counts fall out of the cached
  /// cardinalities: |a∧¬b| = |a| − |a∧b|) — one third of the work of
  /// calling IntersectCount plus two AndNotCounts, which is what the
  /// per-insert rating of every live partition (Algorithm 1) used to do.
  RatingCounts RateCounts(const Synopsis& other) const;

  /// True if the two sets intersect; the pruning test of Definition 1
  /// (sgn(|p ∧ q|) != 0) without computing the full count.
  bool Intersects(const Synopsis& other) const;

  /// True if every id of this set is also in `other`.
  bool IsSubsetOf(const Synopsis& other) const;

  /// Read-only view of the underlying bitset words (64 ids per word,
  /// little-endian within a word, no trailing zero words). The packed
  /// batch-rating kernel (src/ingest) copies these into its per-shard
  /// arenas so it can popcount without going through Synopsis.
  const std::vector<uint64_t>& words() const { return words_; }

  /// Non-owning view over this synopsis; valid while the synopsis is
  /// neither mutated nor destroyed.
  SynopsisSpan span() const {
    return SynopsisSpan{words_.data(), words_.size(), count_};
  }

  /// Enumerates the ids in ascending order.
  std::vector<AttributeId> ToIds() const;

  /// Renders as "{1, 5, 9}" for diagnostics.
  std::string ToString() const;

  friend bool operator==(const Synopsis& a, const Synopsis& b);

 private:
  static constexpr size_t kBitsPerWord = 64;

  void EnsureCapacity(AttributeId id);
  void ShrinkTrailingZeroWords();

  std::vector<uint64_t> words_;
  // Cached popcount of words_, maintained by every mutator. Makes Count()
  // O(1) and lets RateCounts derive both exclusive cardinalities from the
  // intersection alone.
  size_t count_ = 0;
};

bool operator==(const Synopsis& a, const Synopsis& b);
inline bool operator!=(const Synopsis& a, const Synopsis& b) {
  return !(a == b);
}

inline bool SynopsisSpan::Intersects(const Synopsis& other) const {
  const std::vector<uint64_t>& other_words = other.words();
  const size_t common =
      num_words < other_words.size() ? num_words : other_words.size();
  for (size_t i = 0; i < common; ++i) {
    if ((words[i] & other_words[i]) != 0) return true;
  }
  return false;
}

}  // namespace cinderella

#endif  // CINDERELLA_SYNOPSIS_SYNOPSIS_H_
