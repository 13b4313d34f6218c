#include "pagestore/paged_store.h"

#include "common/logging.h"

namespace cinderella {

PagedStore::PagedStore(Pager* pager, BufferPool* pool, bool track_entities)
    : pager_(pager),
      pool_(pool),
      codec_(pager->page_size()),
      track_entities_(track_entities) {
  CINDERELLA_CHECK(pager != nullptr && pool != nullptr);
}

StatusOr<size_t> PagedStore::AddPartition(const Partition& partition) {
  const size_t index = AddEmptyPartition();
  for (const Row& row : partition.segment().rows()) {
    CINDERELLA_RETURN_IF_ERROR(Insert(index, row));
  }
  return index;
}

size_t PagedStore::AddEmptyPartition() {
  if (!free_slots_.empty()) {
    const size_t index = free_slots_.back();
    free_slots_.pop_back();
    partitions_[index] = PartitionChain{};
    return index;
  }
  partitions_.push_back({});
  return partitions_.size() - 1;
}

Status PagedStore::FreeChainPages(PartitionChain& chain) {
  for (PageId page : chain.pages) {
    CINDERELLA_RETURN_IF_ERROR(pool_->Discard(page));
    CINDERELLA_RETURN_IF_ERROR(pager_->FreePage(page));
  }
  chain.pages.clear();
  return Status::OK();
}

Status PagedStore::DropPartition(size_t index) {
  if (index >= partitions_.size()) {
    return Status::OutOfRange("no partition " + std::to_string(index));
  }
  PartitionChain& chain = partitions_[index];
  if (chain.dropped) {
    return Status::FailedPrecondition("partition " + std::to_string(index) +
                                      " already dropped");
  }
  CINDERELLA_RETURN_IF_ERROR(FreeChainPages(chain));
  if (track_entities_) {
    for (auto it = entity_index_.begin(); it != entity_index_.end();) {
      if (it->second.partition == index) {
        it = entity_index_.erase(it);
      } else {
        ++it;
      }
    }
  }
  chain = PartitionChain{};
  chain.dropped = true;
  free_slots_.push_back(index);
  return Status::OK();
}

Status PagedStore::AppendToChain(PartitionChain& chain,
                                 size_t partition_index, const Row& row) {
  if (!chain.pages.empty()) {
    StatusOr<PageHandle> handle = pool_->Fetch(chain.pages.back());
    CINDERELLA_RETURN_IF_ERROR(handle.status());
    const auto slot = codec_.AppendRow(handle->mutable_data(), row);
    if (slot.has_value()) {
      handle->MarkDirty();
      if (track_entities_) {
        entity_index_[row.id()] =
            RowLocation{partition_index, chain.pages.back(), *slot};
      }
      ++chain.row_count;
      return Status::OK();
    }
  }
  StatusOr<PageId> page = pager_->AllocatePage();
  CINDERELLA_RETURN_IF_ERROR(page.status());
  StatusOr<PageHandle> handle = pool_->Fetch(*page);
  CINDERELLA_RETURN_IF_ERROR(handle.status());
  codec_.InitPage(handle->mutable_data());
  const auto slot = codec_.AppendRow(handle->mutable_data(), row);
  if (!slot.has_value()) {
    return Status::InvalidArgument(
        "row " + std::to_string(row.id()) + " does not fit in one page (" +
        std::to_string(PageCodec::EncodedRowSize(row)) + " bytes)");
  }
  handle->MarkDirty();
  chain.pages.push_back(*page);
  if (track_entities_) {
    entity_index_[row.id()] = RowLocation{partition_index, *page, *slot};
  }
  ++chain.row_count;
  return Status::OK();
}

Status PagedStore::Insert(size_t index, const Row& row) {
  if (index >= partitions_.size() || partitions_[index].dropped) {
    return Status::OutOfRange("no partition " + std::to_string(index));
  }
  if (track_entities_ && entity_index_.count(row.id()) > 0) {
    return Status::AlreadyExists("entity " + std::to_string(row.id()) +
                                 " already stored");
  }
  PartitionChain& chain = partitions_[index];
  CINDERELLA_RETURN_IF_ERROR(AppendToChain(chain, index, row));
  chain.synopsis.UnionWith(row.AttributeSynopsis());
  return Status::OK();
}

Status PagedStore::Delete(EntityId entity) {
  if (!track_entities_) {
    return Status::FailedPrecondition("entity tracking disabled");
  }
  auto it = entity_index_.find(entity);
  if (it == entity_index_.end()) {
    return Status::NotFound("entity " + std::to_string(entity) +
                            " not stored");
  }
  const size_t index = it->second.partition;
  {
    StatusOr<PageHandle> handle = pool_->Fetch(it->second.page);
    CINDERELLA_RETURN_IF_ERROR(handle.status());
    codec_.Tombstone(handle->mutable_data(), it->second.slot);
    handle->MarkDirty();
  }
  entity_index_.erase(it);
  PartitionChain& chain = partitions_[index];
  CINDERELLA_CHECK(chain.row_count > 0);
  --chain.row_count;
  ++chain.tombstones;
  // Automatic vacuum: once a chain is mostly dead space its synopsis is a
  // stale over-approximation and scans fetch pages of tombstones — compact
  // it and rebuild the synopsis from the survivors.
  const uint64_t slots = chain.row_count + chain.tombstones;
  if (vacuum_threshold_ > 0.0 && slots > 0 &&
      static_cast<double>(chain.tombstones) >=
          vacuum_threshold_ * static_cast<double>(slots)) {
    CINDERELLA_RETURN_IF_ERROR(VacuumChain(index));
  }
  return Status::OK();
}

StatusOr<Row> PagedStore::Lookup(EntityId entity) {
  if (!track_entities_) {
    return Status::FailedPrecondition("entity tracking disabled");
  }
  auto it = entity_index_.find(entity);
  if (it == entity_index_.end()) {
    return Status::NotFound("entity " + std::to_string(entity) +
                            " not stored");
  }
  StatusOr<PageHandle> handle = pool_->Fetch(it->second.page);
  CINDERELLA_RETURN_IF_ERROR(handle.status());
  return codec_.ReadRow(handle->data(), it->second.slot);
}

Status PagedStore::ForEachRow(size_t index,
                              const std::function<void(Row&&)>& fn) {
  if (index >= partitions_.size() || partitions_[index].dropped) {
    return Status::OutOfRange("no partition " + std::to_string(index));
  }
  for (PageId page : partitions_[index].pages) {
    StatusOr<PageHandle> handle = pool_->Fetch(page);
    CINDERELLA_RETURN_IF_ERROR(handle.status());
    const uint16_t slots = codec_.SlotCount(handle->data());
    for (uint16_t slot = 0; slot < slots; ++slot) {
      if (!codec_.IsLive(handle->data(), slot)) continue;
      StatusOr<Row> row = codec_.ReadRow(handle->data(), slot);
      CINDERELLA_RETURN_IF_ERROR(row.status());
      fn(std::move(row).value());
    }
  }
  return Status::OK();
}

StatusOr<PagedScanResult> PagedStore::ExecuteQuery(const Query& query) {
  PagedScanResult result;
  for (const PartitionChain& chain : partitions_) {
    if (chain.dropped) continue;
    ++result.partitions_total;
    if (!chain.synopsis.Intersects(query.attributes())) {
      ++result.partitions_pruned;
      continue;
    }
    ++result.partitions_scanned;
    for (PageId page : chain.pages) {
      StatusOr<PageHandle> handle = pool_->Fetch(page);
      CINDERELLA_RETURN_IF_ERROR(handle.status());
      ++result.pages_fetched;
      const uint16_t slots = codec_.SlotCount(handle->data());
      for (uint16_t slot = 0; slot < slots; ++slot) {
        if (!codec_.IsLive(handle->data(), slot)) continue;
        StatusOr<Row> row = codec_.ReadRow(handle->data(), slot);
        CINDERELLA_RETURN_IF_ERROR(row.status());
        ++result.rows_scanned;
        if (query.Matches(row->AttributeSynopsis())) ++result.rows_matched;
      }
    }
  }
  return result;
}

Status PagedStore::VacuumChain(size_t index) {
  if (index >= partitions_.size() || partitions_[index].dropped) {
    return Status::OutOfRange("no partition " + std::to_string(index));
  }
  PartitionChain& chain = partitions_[index];
  // Collect live rows of the whole chain, rewrite densely, free the
  // now-unused old pages.
  std::vector<Row> live;
  for (PageId page : chain.pages) {
    StatusOr<PageHandle> handle = pool_->Fetch(page);
    CINDERELLA_RETURN_IF_ERROR(handle.status());
    const uint16_t slots = codec_.SlotCount(handle->data());
    for (uint16_t slot = 0; slot < slots; ++slot) {
      if (!codec_.IsLive(handle->data(), slot)) continue;
      StatusOr<Row> row = codec_.ReadRow(handle->data(), slot);
      CINDERELLA_RETURN_IF_ERROR(row.status());
      live.push_back(std::move(row).value());
    }
  }
  std::vector<PageId> old_pages = std::move(chain.pages);
  chain.pages.clear();
  chain.synopsis.Clear();
  chain.row_count = 0;
  chain.tombstones = 0;
  for (const Row& row : live) {
    CINDERELLA_RETURN_IF_ERROR(AppendToChain(chain, index, row));
    chain.synopsis.UnionWith(row.AttributeSynopsis());
  }
  // Free the old chain (the new one uses freshly allocated pages).
  for (PageId page : old_pages) {
    CINDERELLA_RETURN_IF_ERROR(pool_->Discard(page));
    CINDERELLA_RETURN_IF_ERROR(pager_->FreePage(page));
  }
  return Status::OK();
}

Status PagedStore::Vacuum() {
  for (size_t index = 0; index < partitions_.size(); ++index) {
    if (partitions_[index].dropped) continue;
    CINDERELLA_RETURN_IF_ERROR(VacuumChain(index));
  }
  return Status::OK();
}

bool PagedStore::PartitionDropped(size_t index) const {
  CINDERELLA_CHECK(index < partitions_.size());
  return partitions_[index].dropped;
}

size_t PagedStore::PartitionPageCount(size_t index) const {
  CINDERELLA_CHECK(index < partitions_.size());
  return partitions_[index].pages.size();
}

uint64_t PagedStore::PartitionRowCount(size_t index) const {
  CINDERELLA_CHECK(index < partitions_.size());
  return partitions_[index].row_count;
}

uint64_t PagedStore::PartitionTombstoneCount(size_t index) const {
  CINDERELLA_CHECK(index < partitions_.size());
  return partitions_[index].tombstones;
}

const Synopsis& PagedStore::PartitionSynopsis(size_t index) const {
  CINDERELLA_CHECK(index < partitions_.size());
  return partitions_[index].synopsis;
}

}  // namespace cinderella
