#include "common/crc32c.h"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define CINDERELLA_CRC32C_X86 1
#endif

namespace cinderella {
namespace {

constexpr uint32_t kPolynomial = 0x82F63B78u;  // 0x1EDC6F41 bit-reversed.

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8: table k maps a byte to its CRC contribution k bytes
/// before the end of an 8-byte step, so one step folds 8 bytes with 8
/// independent lookups.
constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t byte = 0; byte < 256; ++byte) {
    uint32_t crc = byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kPolynomial : 0u);
    }
    tables[0][byte] = crc;
  }
  for (uint32_t byte = 0; byte < 256; ++byte) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = tables[k - 1][byte];
      tables[k][byte] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

#if defined(CINDERELLA_CRC32C_X86)
__attribute__((target("sse4.2"))) uint32_t HardwareCrc(const uint8_t* p,
                                                        size_t n) {
  uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t tail = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) tail = _mm_crc32_u8(tail, *p);
  return ~tail;
}
#endif

}  // namespace

uint32_t Crc32cTable(std::string_view data) {
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    crc ^= static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
    crc = kTables[7][crc & 0xFFu] ^ kTables[6][(crc >> 8) & 0xFFu] ^
          kTables[5][(crc >> 16) & 0xFFu] ^ kTables[4][crc >> 24] ^
          kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
          kTables[0][p[7]];
  }
  for (; n > 0; ++p, --n) crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

bool Crc32cHardwareAvailable() {
#if defined(CINDERELLA_CRC32C_X86)
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
#else
  return false;
#endif
}

uint32_t Crc32cHardware(std::string_view data) {
#if defined(CINDERELLA_CRC32C_X86)
  return HardwareCrc(reinterpret_cast<const uint8_t*>(data.data()),
                     data.size());
#else
  return Crc32cTable(data);
#endif
}

uint32_t Crc32c(std::string_view data) {
  return Crc32cHardwareAvailable() ? Crc32cHardware(data) : Crc32cTable(data);
}

}  // namespace cinderella
