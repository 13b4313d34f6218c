#ifndef CINDERELLA_PAGESTORE_PAGE_CODEC_H_
#define CINDERELLA_PAGESTORE_PAGE_CODEC_H_

#include <cstdint>
#include <optional>

#include "common/status.h"
#include "storage/row.h"

namespace cinderella {

/// Identifier of a page within a Pager file: page `id` starts at byte
/// id * page_size.
using PageId = uint64_t;

/// Slotted-page layout for sparse universal-table rows.
///
/// The paper's third deployment scenario puts the partitioning at page
/// granularity in a disk-based system; this codec is the physical row
/// format for that scenario. Pages are written once, full, and never
/// edited in place.
///
/// Layout (little-endian):
///   [0..2)  uint16 slot_count
///   [2..4)  uint16 free_offset   -- next free payload byte
///   [4..free_offset)             -- row payloads, append-only
///   ...free space...
///   [page_size - 4*slot_count .. page_size)
///           slot directory, growing downwards; slot i occupies the 4
///           bytes at page_size - 4*(i+1): uint16 offset, uint16 length.
///
/// Row payload: uint64 entity id, uint16 cell count, then per cell:
/// uint32 attribute, uint8 type tag, and 8 bytes (int64/double) or
/// uint16 length + bytes (string).
class PageCodec {
 public:
  /// `page_size` must be >= 64 and <= 65536 (slot offsets are 16-bit).
  explicit PageCodec(size_t page_size);

  size_t page_size() const { return page_size_; }

  /// Formats an empty page in `page` (page_size bytes).
  void InitPage(uint8_t* page) const;

  /// Number of slots, as stored in the page header (ReadRow bounds it).
  uint16_t SlotCount(const uint8_t* page) const;

  /// Contiguous free bytes available for one more row (accounting for the
  /// 4-byte slot entry it would need).
  size_t FreeSpace(const uint8_t* page) const;

  /// Encoded payload size of a row.
  static size_t EncodedRowSize(const Row& row);

  /// True if `row` fits in an empty page.
  bool FitsInPage(const Row& row) const;

  /// Appends `row`, returning its slot, or nullopt if it does not fit.
  std::optional<uint16_t> AppendRow(uint8_t* page, const Row& row) const;

  /// Decodes the row in `slot`. The page may hold any bytes (it was read
  /// back from a file): a slot, offset, length or cell that points outside
  /// the page or its row payload fails with OutOfRange instead of being
  /// followed.
  StatusOr<Row> ReadRow(const uint8_t* page, uint16_t slot) const;

 private:
  size_t page_size_;
};

}  // namespace cinderella

#endif  // CINDERELLA_PAGESTORE_PAGE_CODEC_H_
