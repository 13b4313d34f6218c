#ifndef CINDERELLA_INGEST_SHARDED_CATALOG_H_
#define CINDERELLA_INGEST_SHARDED_CATALOG_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/partition.h"
#include "synopsis/synopsis.h"

namespace cinderella {

/// A sharded, packed mirror of the partition catalog, maintained by the
/// batched insert engine (batch_inserter.h) as the data structure its
/// rating scans run over.
///
/// Layout: partitions are assigned to `id % shard_count()` and each shard
/// keeps structure-of-arrays state — ascending partition ids, SIZE(p)
/// under the engine's measure, synopsis cardinality |p|, and the synopsis
/// bitset words packed into one arena at a fixed per-shard stride. The
/// rating kernel therefore streams cache-dense rows instead of chasing
/// Partition objects, and the three cardinalities the Section IV rating
/// needs come from one popcount loop over the packed words plus the two
/// cached counts (|e∧¬p| = |e| − |e∧p|, |¬e∧p| = |p| − |e∧p|).
///
/// Locking: one mutex per shard, and every accessor holds exactly one
/// shard mutex at a time (never two), so there is no lock-order concern.
/// Scans (ScanShard) and point reads (WithEntry) of shard s only contend
/// with writers (Upsert/Remove) of the same shard — concurrent batches
/// rating different shards proceed in parallel with no snapshot step.
class ShardedCatalog {
 public:
  /// Borrowed view of one packed entry, valid only inside the callback
  /// that received it (the shard mutex is held for the duration).
  struct EntryView {
    PartitionId id = 0;
    uint64_t size = 0;          // SIZE(p) under the engine's measure.
    uint32_t count = 0;         // |p|: cardinality of the rating synopsis.
    const uint64_t* words = nullptr;  // `num_words` words, zero-padded.
    size_t num_words = 0;
  };

  explicit ShardedCatalog(size_t num_shards);

  ShardedCatalog(const ShardedCatalog&) = delete;
  ShardedCatalog& operator=(const ShardedCatalog&) = delete;

  size_t shard_count() const { return shards_.size(); }
  size_t ShardOf(PartitionId id) const { return id % shards_.size(); }

  /// Live entries across all shards. Locks each shard briefly; the total
  /// is only a snapshot under concurrent writers.
  size_t partition_count() const;

  /// Inserts or refreshes the entry for `id`. `synopsis` is the
  /// partition's rating synopsis; `size` its SIZE under the engine's
  /// measure. Grows the shard's word stride when the synopsis is wider
  /// than any seen before.
  void Upsert(PartitionId id, uint64_t size, const Synopsis& synopsis);

  /// Removes the entry for `id`; false if absent.
  bool Remove(PartitionId id);

  /// True if `id` has an entry.
  bool Contains(PartitionId id) const;

  /// Drops every entry (shard count is preserved).
  void Clear();

  /// Invokes `fn(const EntryView&)` for every entry of shard
  /// `shard_index` in ascending partition-id order, under that shard's
  /// mutex.
  template <typename Fn>
  void ScanShard(size_t shard_index, Fn&& fn) const {
    const Shard& shard = *shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mu);
    const size_t stride = shard.words_per_entry;
    const uint64_t* words = shard.arena.data();
    for (size_t i = 0; i < shard.ids.size(); ++i) {
      fn(EntryView{shard.ids[i], shard.sizes[i], shard.counts[i],
                   words + i * stride, stride});
    }
  }

  /// Invokes `fn(const EntryView&)` for the entry of `id` under its
  /// shard's mutex; false if absent (fn not invoked).
  template <typename Fn>
  bool WithEntry(PartitionId id, Fn&& fn) const {
    const Shard& shard = *shards_[ShardOf(id)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = std::lower_bound(shard.ids.begin(), shard.ids.end(), id);
    if (it == shard.ids.end() || *it != id) return false;
    const size_t i = static_cast<size_t>(it - shard.ids.begin());
    const size_t stride = shard.words_per_entry;
    fn(EntryView{shard.ids[i], shard.sizes[i], shard.counts[i],
                 shard.arena.data() + i * stride, stride});
    return true;
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    // All vectors below are guarded by mu. `ids` ascending; the entry at
    // index i owns arena[i*words_per_entry, (i+1)*words_per_entry).
    size_t words_per_entry = 1;
    std::vector<PartitionId> ids;
    std::vector<uint64_t> sizes;
    std::vector<uint32_t> counts;
    std::vector<uint64_t> arena;
  };

  // unique_ptr slots: Shard holds a mutex and cannot move on vector
  // growth (the vector itself is fixed after construction anyway).
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace cinderella

#endif  // CINDERELLA_INGEST_SHARDED_CATALOG_H_
