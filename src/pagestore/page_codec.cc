#include "pagestore/page_codec.h"

#include <cstring>

#include "common/logging.h"

namespace cinderella {
namespace {

constexpr size_t kHeaderBytes = 4;
constexpr size_t kSlotBytes = 4;
constexpr size_t kRowHeaderBytes = 8 + 2;  // Entity id + cell count.

uint16_t Load16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, sizeof(v)); }

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

// Slot entry address: 4 bytes at page_size - 4*(slot+1).
const uint8_t* SlotEntry(const uint8_t* page, size_t page_size,
                         uint16_t slot) {
  return page + page_size - kSlotBytes * (static_cast<size_t>(slot) + 1);
}

uint8_t* SlotEntry(uint8_t* page, size_t page_size, uint16_t slot) {
  return page + page_size - kSlotBytes * (static_cast<size_t>(slot) + 1);
}

}  // namespace

PageCodec::PageCodec(size_t page_size) : page_size_(page_size) {
  CINDERELLA_CHECK(page_size >= 64 && page_size <= 65536);
}

void PageCodec::InitPage(uint8_t* page) const {
  std::memset(page, 0, page_size_);
  Store16(page, 0);                                    // slot_count
  Store16(page + 2, static_cast<uint16_t>(kHeaderBytes));  // free_offset
}

uint16_t PageCodec::SlotCount(const uint8_t* page) const {
  return Load16(page);
}

size_t PageCodec::FreeSpace(const uint8_t* page) const {
  const size_t slots = SlotCount(page);
  const size_t free_offset = Load16(page + 2);
  const size_t directory_start = page_size_ - kSlotBytes * slots;
  const size_t available = directory_start - free_offset;
  return available > kSlotBytes ? available - kSlotBytes : 0;
}

size_t PageCodec::EncodedRowSize(const Row& row) {
  size_t size = kRowHeaderBytes;
  for (const Row::Cell& cell : row.cells()) {
    size += 4 + 1;  // attribute + type tag
    switch (cell.value.type()) {
      case ValueType::kInt64:
      case ValueType::kDouble:
        size += 8;
        break;
      case ValueType::kString:
        size += 2 + cell.value.as_string().size();
        break;
    }
  }
  return size;
}

bool PageCodec::FitsInPage(const Row& row) const {
  return EncodedRowSize(row) <= page_size_ - kHeaderBytes - kSlotBytes;
}

std::optional<uint16_t> PageCodec::AppendRow(uint8_t* page,
                                             const Row& row) const {
  const size_t payload = EncodedRowSize(row);
  if (payload > 65535 || row.attribute_count() > 65535) return std::nullopt;
  if (payload > FreeSpace(page)) return std::nullopt;

  const uint16_t slot = SlotCount(page);
  const uint16_t offset = Load16(page + 2);
  uint8_t* out = page + offset;
  Store64(out, row.id());
  out += 8;
  Store16(out, static_cast<uint16_t>(row.attribute_count()));
  out += 2;
  for (const Row::Cell& cell : row.cells()) {
    Store32(out, cell.attribute);
    out += 4;
    *out++ = static_cast<uint8_t>(cell.value.type());
    switch (cell.value.type()) {
      case ValueType::kInt64: {
        Store64(out, static_cast<uint64_t>(cell.value.as_int64()));
        out += 8;
        break;
      }
      case ValueType::kDouble: {
        double d = cell.value.as_double();
        std::memcpy(out, &d, 8);
        out += 8;
        break;
      }
      case ValueType::kString: {
        const std::string& s = cell.value.as_string();
        Store16(out, static_cast<uint16_t>(s.size()));
        out += 2;
        std::memcpy(out, s.data(), s.size());
        out += s.size();
        break;
      }
    }
  }
  CINDERELLA_DCHECK(static_cast<size_t>(out - (page + offset)) == payload);

  Store16(page, slot + 1);
  Store16(page + 2, static_cast<uint16_t>(offset + payload));
  uint8_t* entry = SlotEntry(page, page_size_, slot);
  Store16(entry, offset);
  Store16(entry + 2, static_cast<uint16_t>(payload));
  return slot;
}

StatusOr<Row> PageCodec::ReadRow(const uint8_t* page, uint16_t slot) const {
  const size_t slots = SlotCount(page);
  if (slots > (page_size_ - kHeaderBytes) / kSlotBytes) {
    return Status::OutOfRange("corrupt page: slot count " +
                              std::to_string(slots));
  }
  if (slot >= slots) {
    return Status::OutOfRange("slot " + std::to_string(slot) +
                              " out of range");
  }
  const uint8_t* entry = SlotEntry(page, page_size_, slot);
  const size_t offset = Load16(entry);
  const size_t length = Load16(entry + 2);
  const size_t directory_start = page_size_ - kSlotBytes * slots;
  if (length < kRowHeaderBytes || offset < kHeaderBytes ||
      offset + length > directory_start) {
    return Status::OutOfRange("corrupt slot " + std::to_string(slot));
  }
  const uint8_t* in = page + offset;
  const uint8_t* const end = in + length;
  const auto remaining = [&] { return static_cast<size_t>(end - in); };
  Row row(Load64(in));
  in += 8;
  const uint16_t cells = Load16(in);
  in += 2;
  for (uint16_t c = 0; c < cells; ++c) {
    if (remaining() < 5) return Status::OutOfRange("corrupt row payload");
    const uint32_t attribute = Load32(in);
    in += 4;
    const uint8_t type = *in++;
    switch (static_cast<ValueType>(type)) {
      case ValueType::kInt64:
        if (remaining() < 8) return Status::OutOfRange("corrupt row payload");
        row.Set(attribute, Value(static_cast<int64_t>(Load64(in))));
        in += 8;
        break;
      case ValueType::kDouble: {
        if (remaining() < 8) return Status::OutOfRange("corrupt row payload");
        double d;
        std::memcpy(&d, in, 8);
        row.Set(attribute, Value(d));
        in += 8;
        break;
      }
      case ValueType::kString: {
        if (remaining() < 2) return Status::OutOfRange("corrupt row payload");
        const uint16_t size = Load16(in);
        in += 2;
        if (remaining() < size) {
          return Status::OutOfRange("corrupt row payload");
        }
        row.Set(attribute,
                Value(std::string(reinterpret_cast<const char*>(in), size)));
        in += size;
        break;
      }
      default:
        return Status::OutOfRange("corrupt value type tag");
    }
  }
  return row;
}

}  // namespace cinderella
