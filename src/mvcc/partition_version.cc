#include "mvcc/partition_version.h"

#include <cstring>
#include <memory>
#include <new>

#include "common/logging.h"
#include "core/refcounted_synopsis.h"

namespace cinderella {
namespace {

/// SplitMix64 finalizer: entity ids are often small and sequential, so
/// the flat index needs a mixer to spread them across the table.
inline uint64_t MixEntity(EntityId id) {
  uint64_t x = id + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

// -- ShellPool ----------------------------------------------------------------

ShellPool::~ShellPool() {
  for (void* p : free_) ::operator delete(p);
}

void* ShellPool::Acquire(size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  CINDERELLA_CHECK(size_ == 0 || size_ == size);
  size_ = size;
  if (!free_.empty()) {
    void* p = free_.back();
    free_.pop_back();
    ++reused_;
    return p;
  }
  ++created_;
  return ::operator new(size);
}

void ShellPool::Return(void* storage) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(storage);
  ++recycled_;
}

ShellPool::Stats ShellPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{created_, reused_, recycled_, free_.size()};
}

// -- PartitionVersion ---------------------------------------------------------

PartitionVersion::PartitionVersion(const Partition& partition, Arena* arena,
                                   const ColdTier* tier)
    : id_(partition.id()), arena_(arena) {
  arena_->Ref();
  const size_t used_before = arena_->bytes_used();

  if (partition.cold()) {
    // Cold capture: share the page chain, pack only the memory-resident
    // digests (below). Counts come from the chain — identical to what the
    // rows would sum to, since SetCold checked them at eviction.
    cold_chain_ = partition.cold_chain();
    tier_ = tier;
    row_count_ = static_cast<uint32_t>(cold_chain_->entities);
    cell_total_ = 0;  // No packed cells; the destructor's destroy pass skips.
    rows_ = nullptr;
    cells_ = nullptr;
    index_ = nullptr;
  } else {
    const std::vector<Row>& src = partition.segment().rows();
    row_count_ = static_cast<uint32_t>(src.size());

    size_t total_cells = 0;
    for (const Row& row : src) total_cells += row.cells().size();
    cell_total_ = static_cast<uint32_t>(total_cells);

    // Row headers, then the shared cell array: one pass copy-constructs
    // every cell in scan order, so a sequential scan of this version reads
    // monotonically increasing addresses.
    PackedRow* rows = arena_->AllocateArrayOf<PackedRow>(row_count_);
    cells_ = arena_->AllocateArrayOf<Row::Cell>(total_cells);
    uint32_t cursor = 0;
    for (uint32_t i = 0; i < row_count_; ++i) {
      const std::vector<Row::Cell>& cells = src[i].cells();
      rows[i] = PackedRow{src[i].id(), cursor,
                          static_cast<uint32_t>(cells.size())};
      for (const Row::Cell& cell : cells) {
        new (&cells_[cursor++]) Row::Cell{cell.attribute, cell.value};
      }
    }
    rows_ = rows;

    // Open-addressing point index at load factor <= 0.5.
    size_t capacity = 2;
    while (capacity < size_t{2} * row_count_) capacity <<= 1;
    index_mask_ = static_cast<uint32_t>(capacity - 1);
    IndexSlot* slots = arena_->AllocateArrayOf<IndexSlot>(capacity);
    for (size_t i = 0; i < capacity; ++i) slots[i].row = kEmptySlot;
    for (uint32_t i = 0; i < row_count_; ++i) {
      uint32_t h = static_cast<uint32_t>(MixEntity(rows[i].id)) & index_mask_;
      while (slots[h].row != kEmptySlot) h = (h + 1) & index_mask_;
      slots[h] = IndexSlot{rows[i].id, i};
    }
    index_ = slots;
  }

  // Synopsis words plus the dense carrier-count table (one uint32 per
  // attribute id covered by the words).
  const RefcountedSynopsis& refcounts = partition.attribute_refcounts();
  const std::vector<uint64_t>& words = refcounts.synopsis().words();
  synopsis_word_count_ = words.size();
  synopsis_cardinality_ = refcounts.synopsis().Count();
  uint64_t* packed_words = arena_->AllocateArrayOf<uint64_t>(words.size());
  if (!words.empty()) {
    std::memcpy(packed_words, words.data(), words.size() * sizeof(uint64_t));
  }
  synopsis_words_ = packed_words;
  carrier_len_ = static_cast<uint32_t>(words.size() * 64);
  uint32_t* counts = arena_->AllocateArrayOf<uint32_t>(carrier_len_);
  if (carrier_len_ != 0) {
    std::memset(counts, 0, carrier_len_ * sizeof(uint32_t));
  }
  for (size_t w = 0; w < words.size(); ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      const int bit = __builtin_ctzll(bits);
      bits &= bits - 1;
      const AttributeId attribute = static_cast<AttributeId>(w * 64 + bit);
      counts[attribute] = refcounts.RefCount(attribute);
    }
  }
  carrier_counts_ = counts;

  byte_size_ = cold_chain_ != nullptr ? cold_chain_->bytes
                                      : partition.segment().byte_size();
  arena_bytes_ = arena_->bytes_used() - used_before;
}

PartitionVersion::~PartitionVersion() {
  // Cell Values may own heap strings; destroy them before the arena's
  // storage is recycled. (Cold versions packed none.)
  if (cells_ != nullptr) std::destroy_n(cells_, cell_total_);
  arena_->Unref();
}

RowView PartitionVersion::Find(EntityId entity) const {
  // Cold versions carry no point index; VersionedTable::Get falls back to
  // a chain scan for them.
  if (cold_chain_ != nullptr) return RowView();
  if (row_count_ == 0) return RowView();
  uint32_t h = static_cast<uint32_t>(MixEntity(entity)) & index_mask_;
  for (;;) {
    const IndexSlot& slot = index_[h];
    if (slot.row == kEmptySlot) return RowView();
    if (slot.entity == entity) return row(slot.row);
    h = (h + 1) & index_mask_;
  }
}

// -- CatalogView --------------------------------------------------------------

RowView CatalogView::Find(EntityId entity) const {
  for (const PartitionVersion* version : partitions_) {
    RowView row = version->Find(entity);
    if (row.valid()) return row;
  }
  return RowView();
}

Synopsis CatalogView::UnionSynopsis() const {
  // The tree root already holds the OR over every partition; the digest
  // falls out of the incremental maintenance for free.
  if (tree_.valid()) {
    const Synopsis* root = tree_.root_union();
    return root != nullptr ? *root : Synopsis();
  }
  Synopsis digest;
  for (const PartitionVersion* version : partitions_) {
    const SynopsisSpan span = version->attribute_synopsis();
    digest.UnionWithWords(span.words, span.num_words);
  }
  return digest;
}

uint64_t CatalogView::byte_size() const {
  uint64_t total = 0;
  for (const PartitionVersion* version : partitions_) {
    total += version->byte_size();
  }
  return total;
}

// -- CatalogCapture -----------------------------------------------------------

CatalogCapture::CatalogCapture(const PartitionCatalog& catalog) {
  // Unpooled: the last version's Unref deletes the arena. The constructor
  // holds its own reference while packing, so a capture of an empty
  // catalog frees the arena right here.
  Arena* arena = new Arena();
  arena->Ref();
  view_.partitions_.reserve(catalog.partition_count());
  catalog.ForEachPartition([&](const Partition& partition) {
    const ColdTier* tier =
        partition.cold() ? partition.cold_chain()->tier : nullptr;
    view_.partitions_.push_back(new PartitionVersion(partition, arena, tier));
    view_.entity_count_ += partition.entity_count();
  });
  view_.generation_ = 1;
  arena->Unref();
}

CatalogCapture::~CatalogCapture() {
  for (const PartitionVersion* version : view_.partitions_) delete version;
}

// -- ViewPool -----------------------------------------------------------------

ViewPool::~ViewPool() {
  for (CatalogView* view : free_) delete view;
}

CatalogView* ViewPool::Acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_.empty()) {
    CatalogView* view = free_.back();
    free_.pop_back();
    ++reused_;
    return view;
  }
  ++created_;
  auto* view = new CatalogView();
  view->pool_ = this;
  return view;
}

void ViewPool::Return(CatalogView* view) {
  view->partitions_.clear();  // Keeps capacity for the next generation.
  view->generation_ = 0;
  view->entity_count_ = 0;
  view->tree_ = SynopsisTreeSnapshot();  // Drop the tree-root reference.
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(view);
  ++recycled_;
}

ViewPool::Stats ViewPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{created_, reused_, recycled_, free_.size()};
}

}  // namespace cinderella
