#ifndef CINDERELLA_NET_FRAME_H_
#define CINDERELLA_NET_FRAME_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"

namespace cinderella {
namespace net {

/// Message types of the Cinderella wire protocol (DESIGN.md §14). The
/// conversation is strictly request/response over one TCP connection:
/// the client sends one request frame, the server answers with one
/// response frame — except queries, which stream zero or more kRowBatch
/// frames followed by exactly one kQueryDone (so a gather can start
/// merging before the last batch lands).
enum class FrameType : uint8_t {
  kPing = 1,
  kPong = 2,
  kQueryRequest = 3,
  kRowBatch = 4,
  kQueryDone = 5,
  kSynopsisRequest = 6,
  kSynopsisResponse = 7,
  kStatsRequest = 8,
  kStatsResponse = 9,
  kError = 10,
};

/// Highest valid FrameType value; anything above is a corrupt frame.
constexpr uint8_t kMaxFrameType = static_cast<uint8_t>(FrameType::kError);

/// "CIND" little-endian. A connection speaking anything else is rejected
/// on the first header.
constexpr uint32_t kFrameMagic = 0x444E4943u;

/// Bumped on any incompatible layout change; both sides must match.
/// Version 2 added the server instance id to the digest, query-done and
/// stats payloads (net/protocol.h); version 3 made the header checksum
/// CRC32C and requires the rows of one query response to ascend by entity
/// id, with each row's cells ascending by attribute id.
constexpr uint8_t kWireVersion = 3;

/// Hard cap on one frame's payload. Row batches are sliced well below
/// this (node_server.h); the cap exists so a corrupt length field can
/// never drive a multi-gigabyte allocation.
constexpr uint32_t kMaxFramePayload = 64u << 20;

/// Bytes of the fixed frame header:
///   u32 magic, u8 version, u8 type, u16 reserved(0),
///   u32 payload length, u32 CRC32C of the payload (common/crc32c.h).
constexpr size_t kFrameHeaderBytes = 16;

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
};

/// The fields of a validated frame header.
struct FrameHeader {
  FrameType type = FrameType::kPing;
  uint32_t length = 0;    // Payload bytes that follow the header.
  uint32_t checksum = 0;  // CRC32C the payload must match.
};

/// Validates the kFrameHeaderBytes at the front of `bytes` (which must hold
/// at least that many): bad magic, unsupported version, unknown type,
/// nonzero reserved bits and oversized lengths are InvalidArgument.
Status ParseFrameHeader(std::string_view bytes, FrameHeader* header);

/// InvalidArgument unless `payload` has the CRC32C `header` announces.
Status CheckFramePayload(const FrameHeader& header, std::string_view payload);

/// Starts a frame in `*frame`: clears it (its capacity stays, so one buffer
/// serves a whole response) and reserves the header bytes. The payload
/// encoders (net/protocol.h) append after them; SealFrame fills them in.
void BeginFrame(std::string* frame);

/// Writes the header of the frame begun in `*frame`: `type`, the length of
/// everything after the header, and its CRC32C. The buffer is then one
/// complete frame, ready for a single send.
void SealFrame(FrameType type, std::string* frame);

/// Decodes one frame from the front of an in-memory `buffer` with the same
/// validation ReadFrame (net/socket.h) applies to a socket:
///  - returns true and fills `*frame` when a complete, well-formed frame
///    is present; `*consumed` is its total size (header + payload);
///  - returns false when `buffer` is a valid but incomplete prefix (read
///    more bytes and retry); `*consumed` is 0;
///  - returns an error Status when the bytes can never become a valid
///    frame (bad magic, unsupported version, unknown type, oversized
///    length, checksum mismatch). Never reads past `buffer`.
StatusOr<bool> DecodeFrame(std::string_view buffer, Frame* frame,
                           size_t* consumed);

/// Bounds-checked cursor over a frame payload. Every Try* returns false
/// instead of reading past the end, so message decoders degrade to a
/// clean InvalidArgument on truncated or corrupt payloads — the codec
/// never trusts a length field it has not ranged-checked.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  template <typename T>
  bool Read(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (data_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  /// Reads exactly `n` bytes into `*out` (resized).
  bool ReadBytes(std::string* out, size_t n) {
    if (data_.size() - pos_ < n) return false;
    out->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

template <typename T>
inline void WirePod(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

}  // namespace net
}  // namespace cinderella

#endif  // CINDERELLA_NET_FRAME_H_
