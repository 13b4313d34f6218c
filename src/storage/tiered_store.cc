#include "storage/tiered_store.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace cinderella {

TieredStore::TieredStore(TieredStoreOptions options,
                         std::unique_ptr<Pager> pager)
    : options_(std::move(options)),
      registry_(std::make_shared<Registry>()),
      pager_(std::move(pager)),
      pool_(std::make_unique<BufferPool>(pager_.get(), options_.pool_frames)),
      codec_(pager_->page_size()),
      page_(pager_->page_size()) {
  registry_->store = this;
}

StatusOr<std::unique_ptr<TieredStore>> TieredStore::Open(
    TieredStoreOptions options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("tiered store needs a backing path");
  }
  if (options.pool_frames < 2) {
    return Status::InvalidArgument("pool_frames must be >= 2");
  }
  StatusOr<std::unique_ptr<Pager>> pager =
      Pager::Open(options.path, options.page_size);
  CINDERELLA_RETURN_IF_ERROR(pager.status());
  return std::unique_ptr<TieredStore>(
      new TieredStore(std::move(options), std::move(pager).value()));
}

TieredStore::~TieredStore() {
  // Chains released after this point must not touch the dead store.
  std::lock_guard<std::mutex> lock(registry_->mu);
  registry_->store = nullptr;
}

Status TieredStore::WritePages(const std::vector<Row>& rows,
                               std::vector<uint64_t>* pages) {
  for (const Row& row : rows) {
    if (!codec_.FitsInPage(row)) {
      return Status::InvalidArgument(
          "row " + std::to_string(row.id()) + " does not fit in one page (" +
          std::to_string(PageCodec::EncodedRowSize(row)) + " bytes)");
    }
  }
  const auto write_page = [&] {
    const PageId page = pager_->AllocatePage();
    pages->push_back(page);
    return pager_->WritePage(page, page_.data());
  };
  codec_.InitPage(page_.data());
  for (const Row& row : rows) {
    if (codec_.AppendRow(page_.data(), row).has_value()) continue;
    CINDERELLA_RETURN_IF_ERROR(write_page());
    codec_.InitPage(page_.data());
    codec_.AppendRow(page_.data(), row);  // Fits: checked above.
  }
  return write_page();
}

void TieredStore::ReleasePages(const std::vector<uint64_t>& pages) {
  for (const PageId page : pages) {
    pool_->Discard(page);
    pager_->FreePage(page);
  }
}

StatusOr<std::shared_ptr<const ColdChain>> TieredStore::WriteChain(
    const std::vector<Row>& rows) {
  if (rows.empty()) {
    return Status::InvalidArgument("cannot spill an empty partition");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto chain = std::make_unique<ColdChain>();
  const Status written = WritePages(rows, &chain->page_ids);
  if (!written.ok()) {
    // The partition stays hot; nothing reads the pages written so far.
    ReleasePages(chain->page_ids);
    return written;
  }
  chain->representative = std::numeric_limits<EntityId>::max();
  for (const Row& row : rows) {
    chain->cells += row.attribute_count();
    chain->bytes += row.byte_size();
    chain->representative = std::min(chain->representative, row.id());
  }
  chain->entities = rows.size();
  chain->tier = this;
  ++chains_;
  ++chains_written_;
  cold_entities_ += chain->entities;
  cold_bytes_ += chain->bytes;
  cold_pages_ += chain->page_ids.size();
  // The deleter holds the registry weakly through shared ownership of the
  // registry object itself: if the tier died first, `store` is null and
  // only the descriptor is freed (its pages died with the tier's file).
  std::shared_ptr<Registry> registry = registry_;
  return std::shared_ptr<const ColdChain>(
      chain.release(), [registry](const ColdChain* dead) {
        {
          std::lock_guard<std::mutex> lock(registry->mu);
          if (registry->store != nullptr) registry->store->DropChain(*dead);
        }
        delete dead;
      });
}

Status TieredStore::ReadChain(const ColdChain& chain,
                              const std::function<void(Row&&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const PageId page : chain.page_ids) {
    StatusOr<PageHandle> handle = pool_->Fetch(page);
    CINDERELLA_RETURN_IF_ERROR(handle.status());
    const uint16_t slots = codec_.SlotCount(handle->data());
    for (uint16_t slot = 0; slot < slots; ++slot) {
      StatusOr<Row> row = codec_.ReadRow(handle->data(), slot);
      CINDERELLA_RETURN_IF_ERROR(row.status());
      fn(std::move(row).value());
    }
  }
  return Status::OK();
}

void TieredStore::DropChain(const ColdChain& chain) {
  std::lock_guard<std::mutex> lock(mu_);
  // Reads pin pages only inside ReadChain, under mu_: no frame of the
  // chain is pinned here.
  ReleasePages(chain.page_ids);
  --chains_;
  ++chains_dropped_;
  cold_entities_ -= chain.entities;
  cold_bytes_ -= chain.bytes;
  cold_pages_ -= chain.page_ids.size();
}

TieredStoreStats TieredStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  TieredStoreStats stats;
  stats.chains = chains_;
  stats.cold_entities = cold_entities_;
  stats.cold_bytes = cold_bytes_;
  stats.cold_pages = cold_pages_;
  stats.chains_written = chains_written_;
  stats.chains_dropped = chains_dropped_;
  stats.pool = pool_->stats();
  stats.pager_pages_read = pager_->pages_read();
  stats.pager_pages_written = pager_->pages_written();
  stats.file_pages = pager_->page_count();
  stats.free_pages = pager_->free_page_count();
  return stats;
}

// ---------------------------------------------------------------------------
// TierController.
// ---------------------------------------------------------------------------

TierController::TierController(Cinderella* engine,
                               TierControllerOptions options)
    : engine_(engine), options_(options) {
  CINDERELLA_CHECK(engine_ != nullptr);
  engine_->AddMutationListener(&listener_);
}

TierController::~TierController() {
  engine_->RemoveMutationListener(&listener_);
}

void TierController::AbsorbMutations() {
  for (PartitionId id : listener_.touched) last_touch_[id] = tick_;
  for (PartitionId id : listener_.created) last_touch_[id] = tick_;
  for (PartitionId id : listener_.dropped) last_touch_.erase(id);
  listener_.touched.clear();
  listener_.created.clear();
  listener_.dropped.clear();
}

uint64_t TierController::HotBytes() const {
  uint64_t bytes = 0;
  engine_->catalog().ForEachPartition([&](const Partition& partition) {
    if (!partition.cold()) bytes += partition.Size(SizeMeasure::kByteSize);
  });
  return bytes;
}

StatusOr<size_t> TierController::EvaluateAndSpill() {
  ++tick_;
  AbsorbMutations();
  if (options_.budget_bytes == 0 || engine_->cold_tier() == nullptr) {
    return static_cast<size_t>(0);
  }
  uint64_t hot_bytes = HotBytes();
  if (hot_bytes <= options_.budget_bytes) return static_cast<size_t>(0);

  // Victim order: least query activity first, then least-recently touched,
  // then lowest id (deterministic across runs).
  struct Victim {
    PartitionId id;
    double activity;
    uint64_t last_touch;
    uint64_t bytes;
  };
  std::vector<Victim> victims;
  engine_->catalog().ForEachPartition([&](const Partition& partition) {
    if (partition.cold() || partition.entity_count() == 0) return;
    const auto it = last_touch_.find(partition.id());
    // Untracked partitions predate the controller: maximally idle.
    const uint64_t touched = it == last_touch_.end() ? 0 : it->second;
    if (tick_ - touched < options_.min_idle) return;
    victims.push_back(Victim{
        partition.id(),
        probe_ ? probe_(partition.id()) : 0.0,
        touched,
        partition.Size(SizeMeasure::kByteSize),
    });
  });
  std::sort(victims.begin(), victims.end(), [](const Victim& a,
                                               const Victim& b) {
    if (a.activity != b.activity) return a.activity < b.activity;
    if (a.last_touch != b.last_touch) return a.last_touch < b.last_touch;
    return a.id < b.id;
  });

  size_t spilled = 0;
  for (const Victim& victim : victims) {
    if (hot_bytes <= options_.budget_bytes) break;
    CINDERELLA_RETURN_IF_ERROR(engine_->SpillPartition(victim.id));
    hot_bytes -= std::min(hot_bytes, victim.bytes);
    ++spilled;
  }
  return spilled;
}

StatusOr<size_t> TierController::SpillPartitions(
    const std::vector<PartitionId>& ids) {
  if (engine_->cold_tier() == nullptr) {
    return Status::FailedPrecondition("no cold tier attached");
  }
  size_t spilled = 0;
  for (PartitionId id : ids) {
    const Partition* partition = engine_->catalog().GetPartition(id);
    if (partition == nullptr || partition->cold() ||
        partition->entity_count() == 0) {
      continue;
    }
    CINDERELLA_RETURN_IF_ERROR(engine_->SpillPartition(id));
    ++spilled;
  }
  return spilled;
}

}  // namespace cinderella
