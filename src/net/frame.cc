#include "net/frame.h"

#include <algorithm>

#include "common/crc32c.h"

namespace cinderella {
namespace net {

Status ParseFrameHeader(std::string_view bytes, FrameHeader* header) {
  WireReader reader(bytes.substr(0, kFrameHeaderBytes));
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  uint16_t reserved = 0;
  if (!reader.Read(&magic) || !reader.Read(&version) || !reader.Read(&type) ||
      !reader.Read(&reserved) || !reader.Read(&header->length) ||
      !reader.Read(&header->checksum)) {
    return Status::Internal("short frame header");  // Callers pass 16 bytes.
  }
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(version));
  }
  if (type == 0 || type > kMaxFrameType) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  if (reserved != 0) {
    return Status::InvalidArgument("nonzero reserved frame bits");
  }
  if (header->length > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload length " +
                                   std::to_string(header->length) +
                                   " exceeds cap");
  }
  header->type = static_cast<FrameType>(type);
  return Status::OK();
}

Status CheckFramePayload(const FrameHeader& header, std::string_view payload) {
  if (Crc32c(payload) != header.checksum) {
    return Status::InvalidArgument("frame checksum mismatch");
  }
  return Status::OK();
}

void BeginFrame(std::string* frame) {
  frame->assign(kFrameHeaderBytes, '\0');
}

void SealFrame(FrameType type, std::string* frame) {
  const std::string_view payload =
      std::string_view(*frame).substr(kFrameHeaderBytes);
  const uint32_t length = static_cast<uint32_t>(payload.size());
  const uint32_t checksum = Crc32c(payload);
  char* header = frame->data();
  const uint8_t version = kWireVersion;
  const uint8_t type_byte = static_cast<uint8_t>(type);
  std::memcpy(header, &kFrameMagic, sizeof(kFrameMagic));
  std::memcpy(header + 4, &version, sizeof(version));
  std::memcpy(header + 5, &type_byte, sizeof(type_byte));
  std::memset(header + 6, 0, sizeof(uint16_t));  // Reserved.
  std::memcpy(header + 8, &length, sizeof(length));
  std::memcpy(header + 12, &checksum, sizeof(checksum));
}

StatusOr<bool> DecodeFrame(std::string_view buffer, Frame* frame,
                           size_t* consumed) {
  *consumed = 0;
  if (buffer.size() < kFrameHeaderBytes) {
    // A short buffer can still be rejected early: whatever is present of
    // the magic must match, else no amount of further bytes helps.
    const size_t check = std::min(buffer.size(), sizeof(uint32_t));
    if (std::memcmp(buffer.data(), &kFrameMagic, check) != 0) {
      return Status::InvalidArgument("bad frame magic");
    }
    return false;
  }
  FrameHeader header;
  CINDERELLA_RETURN_IF_ERROR(ParseFrameHeader(buffer, &header));
  const std::string_view payload = buffer.substr(kFrameHeaderBytes);
  if (payload.size() < header.length) return false;  // Incomplete payload.
  CINDERELLA_RETURN_IF_ERROR(
      CheckFramePayload(header, payload.substr(0, header.length)));
  frame->type = header.type;
  frame->payload.assign(payload.data(), header.length);
  *consumed = kFrameHeaderBytes + header.length;
  return true;
}

}  // namespace net
}  // namespace cinderella
