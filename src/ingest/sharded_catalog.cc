#include "ingest/sharded_catalog.h"

#include "common/logging.h"

namespace cinderella {

ShardedCatalog::ShardedCatalog(size_t num_shards) {
  CINDERELLA_CHECK(num_shards >= 1);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t ShardedCatalog::partition_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->ids.size();
  }
  return total;
}

void ShardedCatalog::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->words_per_entry = 1;
    shard->ids.clear();
    shard->sizes.clear();
    shard->counts.clear();
    shard->arena.clear();
  }
}

void ShardedCatalog::Upsert(PartitionId id, uint64_t size,
                            const Synopsis& synopsis) {
  Shard& shard = *shards_[ShardOf(id)];
  const std::vector<uint64_t>& words = synopsis.words();
  std::lock_guard<std::mutex> lock(shard.mu);

  // Widen the stride first so every entry (old and new) keeps the shard's
  // uniform layout; old entries are re-packed with zero padding.
  if (words.size() > shard.words_per_entry) {
    const size_t new_stride = words.size();
    std::vector<uint64_t> arena(shard.ids.size() * new_stride, 0);
    for (size_t i = 0; i < shard.ids.size(); ++i) {
      std::copy(shard.arena.begin() +
                    static_cast<ptrdiff_t>(i * shard.words_per_entry),
                shard.arena.begin() +
                    static_cast<ptrdiff_t>((i + 1) * shard.words_per_entry),
                arena.begin() + static_cast<ptrdiff_t>(i * new_stride));
    }
    shard.arena = std::move(arena);
    shard.words_per_entry = new_stride;
  }

  const auto it = std::lower_bound(shard.ids.begin(), shard.ids.end(), id);
  const size_t i = static_cast<size_t>(it - shard.ids.begin());
  if (it == shard.ids.end() || *it != id) {
    // New entry. Partition ids are assigned monotonically by the catalog,
    // so in practice this is a push_back; the general insert keeps the
    // mirror correct for arbitrary rebuild orders.
    shard.ids.insert(it, id);
    shard.sizes.insert(shard.sizes.begin() + static_cast<ptrdiff_t>(i), size);
    shard.counts.insert(shard.counts.begin() + static_cast<ptrdiff_t>(i),
                        static_cast<uint32_t>(synopsis.Count()));
    shard.arena.insert(
        shard.arena.begin() + static_cast<ptrdiff_t>(i * shard.words_per_entry),
        shard.words_per_entry, 0);
  } else {
    shard.sizes[i] = size;
    shard.counts[i] = static_cast<uint32_t>(synopsis.Count());
  }
  uint64_t* entry = shard.arena.data() + i * shard.words_per_entry;
  std::copy(words.begin(), words.end(), entry);
  std::fill(entry + words.size(), entry + shard.words_per_entry, 0);
}

bool ShardedCatalog::Remove(PartitionId id) {
  Shard& shard = *shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = std::lower_bound(shard.ids.begin(), shard.ids.end(), id);
  if (it == shard.ids.end() || *it != id) return false;
  const size_t i = static_cast<size_t>(it - shard.ids.begin());
  shard.ids.erase(it);
  shard.sizes.erase(shard.sizes.begin() + static_cast<ptrdiff_t>(i));
  shard.counts.erase(shard.counts.begin() + static_cast<ptrdiff_t>(i));
  shard.arena.erase(
      shard.arena.begin() + static_cast<ptrdiff_t>(i * shard.words_per_entry),
      shard.arena.begin() +
          static_cast<ptrdiff_t>((i + 1) * shard.words_per_entry));
  return true;
}

bool ShardedCatalog::Contains(PartitionId id) const {
  const Shard& shard = *shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return std::binary_search(shard.ids.begin(), shard.ids.end(), id);
}

}  // namespace cinderella
