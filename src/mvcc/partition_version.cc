#include "mvcc/partition_version.h"

#include <cstring>
#include <memory>
#include <new>

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

/// Rounds `offset` up to a multiple of `align` (a power of two).
constexpr size_t AlignUp(size_t offset, size_t align) {
  return (offset + align - 1) & ~(align - 1);
}

}  // namespace

// -- PartitionVersion ---------------------------------------------------------

struct PartitionVersion::Layout {
  uint32_t row_count = 0;
  uint32_t cell_total = 0;
  size_t index_capacity = 0;  // 0 for a cold version: no point index.
  size_t words = 0;
  size_t rows = 0;  // Region offsets from the buffer's start.
  size_t cells = 0;
  size_t index = 0;
  size_t synopsis = 0;
  size_t counts = 0;
  size_t total = 0;  // Buffer size.

  explicit Layout(const Partition& partition) {
    if (!partition.cold()) {
      const std::vector<Row>& src = partition.segment().rows();
      row_count = static_cast<uint32_t>(src.size());
      size_t cells_sum = 0;
      for (const Row& row : src) cells_sum += row.cells().size();
      cell_total = static_cast<uint32_t>(cells_sum);
      // Open-addressing point index at load factor <= 0.5.
      index_capacity = 2;
      while (index_capacity < size_t{2} * row_count) index_capacity <<= 1;
    }
    words = partition.attribute_refcounts().synopsis().words().size();
    // The regions in scan order behind the header, each aligned for its
    // element type.
    size_t offset = sizeof(PartitionVersion);
    auto region = [&offset](size_t count, size_t size, size_t align) {
      const size_t begin = AlignUp(offset, align);
      offset = begin + count * size;
      return begin;
    };
    rows = region(row_count, sizeof(PackedRow), alignof(PackedRow));
    cells = region(cell_total, sizeof(Row::Cell), alignof(Row::Cell));
    index = region(index_capacity, sizeof(IndexSlot), alignof(IndexSlot));
    synopsis = region(words, sizeof(uint64_t), alignof(uint64_t));
    counts = region(words * 64, sizeof(uint32_t), alignof(uint32_t));
    total = offset;
  }
};

const PartitionVersion* PartitionVersion::Create(
    const Partition& partition, const ColdTier* tier,
    std::atomic<size_t>* held_bytes) {
  static_assert(alignof(PartitionVersion) <=
                    __STDCPP_DEFAULT_NEW_ALIGNMENT__ &&
                alignof(Row::Cell) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  const Layout layout(partition);
  void* buffer = ::operator new(layout.total);
  return new (buffer) PartitionVersion(partition, tier, layout, held_bytes);
}

void PartitionVersion::Destroy(const PartitionVersion* version) {
  auto* doomed = const_cast<PartitionVersion*>(version);
  const size_t bytes = doomed->buffer_bytes_;
  std::atomic<size_t>* held_bytes = doomed->held_bytes_;
  doomed->~PartitionVersion();
  ::operator delete(static_cast<void*>(doomed), bytes);
  if (held_bytes != nullptr) {
    held_bytes->fetch_sub(bytes, std::memory_order_relaxed);
  }
}

PartitionVersion::PartitionVersion(const Partition& partition,
                                   const ColdTier* tier, const Layout& layout,
                                   std::atomic<size_t>* held_bytes)
    : id_(partition.id()),
      buffer_bytes_(layout.total),
      held_bytes_(held_bytes) {
  char* const base = reinterpret_cast<char*>(this);
  row_count_ = layout.row_count;
  cell_total_ = layout.cell_total;

  if (partition.cold()) {
    // Cold capture: share the page chain, pack only the memory-resident
    // digests (below). Counts come from the chain — identical to what the
    // rows would sum to, since SetCold checked them at eviction.
    cold_chain_ = partition.cold_chain();
    tier_ = tier;
    row_count_ = static_cast<uint32_t>(cold_chain_->entities);
    rows_ = nullptr;
    cells_ = nullptr;  // No packed cells; the destructor's destroy pass skips.
    index_ = nullptr;
  } else {
    const std::vector<Row>& src = partition.segment().rows();

    // Row headers, then the shared cell array: one pass copy-constructs
    // every cell in scan order, so a sequential scan of this version reads
    // monotonically increasing addresses.
    auto* rows = reinterpret_cast<PackedRow*>(base + layout.rows);
    cells_ = reinterpret_cast<Row::Cell*>(base + layout.cells);
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

    index_mask_ = static_cast<uint32_t>(layout.index_capacity - 1);
    auto* slots = reinterpret_cast<IndexSlot*>(base + layout.index);
    for (size_t i = 0; i < layout.index_capacity; ++i) {
      slots[i].row = kEmptySlot;
    }
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
  auto* packed_words = reinterpret_cast<uint64_t*>(base + layout.synopsis);
  if (!words.empty()) {
    std::memcpy(packed_words, words.data(), words.size() * sizeof(uint64_t));
  }
  synopsis_words_ = packed_words;
  carrier_len_ = static_cast<uint32_t>(words.size() * 64);
  auto* counts = reinterpret_cast<uint32_t*>(base + layout.counts);
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
  if (held_bytes_ != nullptr) {
    held_bytes_->fetch_add(buffer_bytes_, std::memory_order_relaxed);
  }
}

PartitionVersion::~PartitionVersion() {
  // Cell Values may own heap strings; destroy them before Destroy frees
  // the buffer. (Cold versions packed none.)
  if (cells_ != nullptr) std::destroy_n(cells_, cell_total_);
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
  view_.partitions_.reserve(catalog.partition_count());
  catalog.ForEachPartition([&](const Partition& partition) {
    const ColdTier* tier =
        partition.cold() ? partition.cold_chain()->tier : nullptr;
    view_.partitions_.push_back(PartitionVersion::Create(partition, tier));
    view_.entity_count_ += partition.entity_count();
  });
  view_.generation_ = 1;
}

CatalogCapture::~CatalogCapture() {
  for (const PartitionVersion* version : view_.partitions_) {
    PartitionVersion::Destroy(version);
  }
}

}  // namespace cinderella
