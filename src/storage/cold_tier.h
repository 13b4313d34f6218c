#ifndef CINDERELLA_STORAGE_COLD_TIER_H_
#define CINDERELLA_STORAGE_COLD_TIER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "storage/row.h"

namespace cinderella {

class ColdTier;

/// Descriptor of one cold partition's on-disk page chain. Immutable once
/// written; shared (via shared_ptr) between the live Partition, every MVCC
/// PartitionVersion published while the partition is cold, and the tier's
/// own bookkeeping. The pages behind it are freed only when the last
/// reference drops (the shared_ptr deleter routes back to the tier), so a
/// pinned snapshot reader can keep scanning a chain after the partition
/// faulted back to the hot tier.
struct ColdChain {
  /// Chain slot inside the backing PagedStore.
  size_t store_index = 0;
  /// Lowest entity id among the chain's rows at spill time. Journal spill
  /// records name chains by this id: partition ids are not stable across
  /// snapshot restore, entity ids are.
  EntityId representative = 0;
  /// Row/cell/byte totals of the spilled segment — Partition::Size() and
  /// the MVCC versions answer from these without touching a page.
  uint64_t entities = 0;
  uint64_t cells = 0;
  uint64_t bytes = 0;
  /// Pages the chain occupies (tier residency reporting).
  uint32_t pages = 0;
  /// The tier that wrote the chain — the read path for holders of only
  /// the descriptor (Partition::ForEachRow, CatalogCapture). Valid while
  /// the tier is open; readers must not outlive it (the same contract
  /// every cold read path already has).
  const ColdTier* tier = nullptr;
};

/// The cold-tier interface the core engine sees: write a partition's rows
/// out as one page chain, read a chain back row by row. Implemented by
/// TieredStore (src/storage/tiered_store.h, compiled into the pagestore
/// library); the core library depends only on this header, so the
/// storage -> pagestore layering stays acyclic.
class ColdTier {
 public:
  virtual ~ColdTier() = default;

  /// Writes `rows` (a partition's segment, in scan order) as one chain and
  /// returns its descriptor. Releasing the last shared_ptr reference frees
  /// the chain's pages.
  virtual StatusOr<std::shared_ptr<const ColdChain>> WriteChain(
      const std::vector<Row>& rows) = 0;

  /// Streams the chain's rows, in the order WriteChain received them, into
  /// `fn`. Safe to call concurrently with WriteChain/ReadChain from other
  /// threads (the implementation serializes internally).
  virtual Status ReadChain(const ColdChain& chain,
                           const std::function<void(Row&&)>& fn) const = 0;
};

}  // namespace cinderella

#endif  // CINDERELLA_STORAGE_COLD_TIER_H_
