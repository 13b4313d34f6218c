#ifndef CINDERELLA_COMMON_CRC32C_H_
#define CINDERELLA_COMMON_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace cinderella {

/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected, initial value and
/// final XOR 0xFFFFFFFF) of `data` — the checksum of iSCSI (RFC 3720), ext4
/// and LevelDB. Unlike a multiply-xor hash it detects every single-bit
/// error, every burst of up to 32 bits, and every odd number of flipped
/// bits in messages of the sizes checksummed here.
///
/// Uses the SSE4.2 crc32 instruction where the CPU reports it (resolved once,
/// on the first call) and the slicing-by-8 tables otherwise; both paths
/// return identical values.
uint32_t Crc32c(std::string_view data);

/// The slicing-by-8 table path, on every host (tests and the bench compare
/// it with the instruction path).
uint32_t Crc32cTable(std::string_view data);

/// True when this CPU has the crc32 instruction, i.e. when Crc32c runs it.
bool Crc32cHardwareAvailable();

/// The instruction path. Call only when Crc32cHardwareAvailable().
uint32_t Crc32cHardware(std::string_view data);

}  // namespace cinderella

#endif  // CINDERELLA_COMMON_CRC32C_H_
