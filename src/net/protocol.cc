#include "net/protocol.h"

#include <algorithm>
#include <cstring>

namespace cinderella {
namespace net {
namespace {

// Sanity caps mirroring the journal codec's: a corrupt count field must
// fail fast instead of driving a giant allocation loop.
constexpr uint32_t kMaxAttributes = 1u << 20;
constexpr uint32_t kMaxRowsPerBatch = 1u << 20;
constexpr uint32_t kMaxCellsPerRow = 1u << 24;
constexpr uint32_t kMaxStringBytes = 1u << 28;
constexpr uint32_t kMaxSynopsisWords = 1u << 20;
constexpr uint32_t kMaxErrorBytes = 1u << 16;

// The fewest payload bytes one element can take: a row's id and cell
// count, a cell's attribute, type tag and (empty string) length, an
// attribute id, a synopsis word. Reservations never exceed what the bytes
// left could hold.
constexpr size_t kMinRowBytes = sizeof(uint64_t) + sizeof(uint32_t);
constexpr size_t kMinCellBytes =
    sizeof(uint32_t) + sizeof(uint8_t) + sizeof(uint32_t);
constexpr size_t kAttributeBytes = sizeof(AttributeId);
constexpr size_t kWordBytes = sizeof(uint64_t);

size_t ReserveFor(uint32_t count, const WireReader& reader, size_t min_bytes) {
  return std::min<size_t>(count, reader.remaining() / min_bytes);
}

Status Corrupt(const char* what) {
  return Status::InvalidArgument(std::string("corrupt ") + what + " payload");
}

void EncodeCell(AttributeId attribute, const Value& value, std::string* out) {
  WirePod<uint32_t>(out, attribute);
  WirePod<uint8_t>(out, static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ValueType::kInt64:
      WirePod<int64_t>(out, value.as_int64());
      break;
    case ValueType::kDouble:
      WirePod<double>(out, value.as_double());
      break;
    case ValueType::kString: {
      const std::string& s = value.as_string();
      WirePod<uint32_t>(out, static_cast<uint32_t>(s.size()));
      out->append(s.data(), s.size());
      break;
    }
  }
}

/// Decodes one row, appending its cells in wire order; false on a torn
/// payload, an unknown type tag, or attribute ids that do not ascend.
bool DecodeRow(WireReader* reader, Row* row) {
  uint64_t id = 0;
  uint32_t count = 0;
  if (!reader->Read(&id) || !reader->Read(&count)) return false;
  if (count > kMaxCellsPerRow) return false;
  std::vector<Row::Cell> cells;
  cells.reserve(ReserveFor(count, *reader, kMinCellBytes));
  for (uint32_t c = 0; c < count; ++c) {
    uint32_t attribute = 0;
    uint8_t type = 0;
    if (!reader->Read(&attribute) || !reader->Read(&type)) return false;
    if (!cells.empty() && attribute <= cells.back().attribute) return false;
    Value value;
    switch (static_cast<ValueType>(type)) {
      case ValueType::kInt64: {
        int64_t v = 0;
        if (!reader->Read(&v)) return false;
        value = Value(v);
        break;
      }
      case ValueType::kDouble: {
        double v = 0;
        if (!reader->Read(&v)) return false;
        value = Value(v);
        break;
      }
      case ValueType::kString: {
        uint32_t size = 0;
        if (!reader->Read(&size) || size > kMaxStringBytes) return false;
        std::string s;
        if (!reader->ReadBytes(&s, size)) return false;
        value = Value(std::move(s));
        break;
      }
      default:
        return false;
    }
    cells.push_back(Row::Cell{attribute, std::move(value)});
  }
  *row = Row(id, std::move(cells));
  return true;
}

}  // namespace


// -- QueryRequest -------------------------------------------------------------

void EncodeQueryRequest(const QueryRequestMsg& msg, std::string* out) {
  WirePod<uint64_t>(out, msg.request_id);
  WirePod<uint32_t>(out, static_cast<uint32_t>(msg.attributes.size()));
  for (const AttributeId id : msg.attributes) WirePod<uint32_t>(out, id);
}

Status DecodeQueryRequest(std::string_view payload, QueryRequestMsg* msg) {
  WireReader reader(payload);
  uint32_t count = 0;
  if (!reader.Read(&msg->request_id) || !reader.Read(&count) ||
      count > kMaxAttributes) {
    return Corrupt("query request");
  }
  msg->attributes.clear();
  msg->attributes.reserve(ReserveFor(count, reader, kAttributeBytes));
  for (uint32_t i = 0; i < count; ++i) {
    AttributeId id = 0;
    if (!reader.Read(&id)) return Corrupt("query request");
    msg->attributes.push_back(id);
  }
  if (!reader.done()) return Corrupt("query request");
  return Status::OK();
}

// -- RowBatch -----------------------------------------------------------------

uint64_t EncodeRowBatch(uint64_t request_id, uint32_t sequence,
                        std::span<const RowView> rows,
                        std::span<const AttributeId> attributes,
                        std::string* out) {
  WirePod<uint64_t>(out, request_id);
  WirePod<uint32_t>(out, sequence);
  WirePod<uint32_t>(out, static_cast<uint32_t>(rows.size()));
  uint64_t cells = 0;
  for (const RowView& row : rows) {
    WirePod<uint64_t>(out, row.id());
    const size_t count_at = out->size();
    WirePod<uint32_t>(out, 0);  // Cell count, filled in below.
    uint32_t count = 0;
    for (const AttributeId attribute : attributes) {
      const Value* value = row.Get(attribute);
      if (value == nullptr) continue;
      EncodeCell(attribute, *value, out);
      ++count;
    }
    std::memcpy(out->data() + count_at, &count, sizeof(count));
    cells += count;
  }
  return cells;
}

Status DecodeRowBatch(std::string_view payload, RowBatchMsg* msg) {
  WireReader reader(payload);
  uint32_t count = 0;
  if (!reader.Read(&msg->request_id) || !reader.Read(&msg->sequence) ||
      !reader.Read(&count) || count > kMaxRowsPerBatch) {
    return Corrupt("row batch");
  }
  msg->rows.clear();
  msg->rows.reserve(ReserveFor(count, reader, kMinRowBytes));
  for (uint32_t i = 0; i < count; ++i) {
    Row row;
    if (!DecodeRow(&reader, &row)) return Corrupt("row batch");
    msg->rows.push_back(std::move(row));
  }
  if (!reader.done()) return Corrupt("row batch");
  return Status::OK();
}

// -- QueryDone ----------------------------------------------------------------

void EncodeQueryDone(const QueryDoneMsg& msg, std::string* out) {
  WirePod<uint64_t>(out, msg.request_id);
  WirePod<uint64_t>(out, msg.instance_id);
  WirePod<uint32_t>(out, msg.batches);
  WirePod<uint64_t>(out, msg.partitions_total);
  WirePod<uint64_t>(out, msg.partitions_scanned);
  WirePod<uint64_t>(out, msg.partitions_pruned);
  WirePod<uint64_t>(out, msg.rows_scanned);
  WirePod<uint64_t>(out, msg.rows_matched);
  WirePod<uint64_t>(out, msg.cells_shipped);
}

Status DecodeQueryDone(std::string_view payload, QueryDoneMsg* msg) {
  WireReader reader(payload);
  if (!reader.Read(&msg->request_id) || !reader.Read(&msg->instance_id) ||
      !reader.Read(&msg->batches) ||
      !reader.Read(&msg->partitions_total) ||
      !reader.Read(&msg->partitions_scanned) ||
      !reader.Read(&msg->partitions_pruned) ||
      !reader.Read(&msg->rows_scanned) || !reader.Read(&msg->rows_matched) ||
      !reader.Read(&msg->cells_shipped) || !reader.done()) {
    return Corrupt("query done");
  }
  return Status::OK();
}

// -- SynopsisDigest -----------------------------------------------------------

void EncodeSynopsisDigest(const SynopsisDigestMsg& msg, std::string* out) {
  WirePod<uint64_t>(out, msg.instance_id);
  WirePod<uint64_t>(out, msg.generation);
  WirePod<uint64_t>(out, msg.partitions);
  WirePod<uint64_t>(out, msg.entities);
  WirePod<uint32_t>(out, static_cast<uint32_t>(msg.union_words.size()));
  for (const uint64_t word : msg.union_words) WirePod<uint64_t>(out, word);
}

Status DecodeSynopsisDigest(std::string_view payload, SynopsisDigestMsg* msg) {
  WireReader reader(payload);
  uint32_t words = 0;
  if (!reader.Read(&msg->instance_id) || !reader.Read(&msg->generation) ||
      !reader.Read(&msg->partitions) ||
      !reader.Read(&msg->entities) || !reader.Read(&words) ||
      words > kMaxSynopsisWords) {
    return Corrupt("synopsis digest");
  }
  msg->union_words.clear();
  msg->union_words.reserve(ReserveFor(words, reader, kWordBytes));
  for (uint32_t i = 0; i < words; ++i) {
    uint64_t word = 0;
    if (!reader.Read(&word)) return Corrupt("synopsis digest");
    msg->union_words.push_back(word);
  }
  if (!reader.done()) return Corrupt("synopsis digest");
  return Status::OK();
}

// -- NodeStats ----------------------------------------------------------------

void EncodeNodeStats(const NodeStatsMsg& msg, std::string* out) {
  WirePod<uint64_t>(out, msg.instance_id);
  WirePod<uint64_t>(out, msg.generation);
  WirePod<uint64_t>(out, msg.partitions);
  WirePod<uint64_t>(out, msg.entities);
  WirePod<uint64_t>(out, msg.bytes);
  WirePod<uint64_t>(out, msg.queries_served);
  WirePod<uint64_t>(out, msg.rows_shipped);
}

Status DecodeNodeStats(std::string_view payload, NodeStatsMsg* msg) {
  WireReader reader(payload);
  if (!reader.Read(&msg->instance_id) || !reader.Read(&msg->generation) ||
      !reader.Read(&msg->partitions) || !reader.Read(&msg->entities) ||
      !reader.Read(&msg->bytes) ||
      !reader.Read(&msg->queries_served) || !reader.Read(&msg->rows_shipped) ||
      !reader.done()) {
    return Corrupt("node stats");
  }
  return Status::OK();
}

// -- Error --------------------------------------------------------------------

void EncodeError(const Status& status, std::string* out) {
  WirePod<uint8_t>(out, static_cast<uint8_t>(status.code()));
  const std::string& message = status.message();
  const uint32_t size = message.size() > kMaxErrorBytes
                            ? kMaxErrorBytes
                            : static_cast<uint32_t>(message.size());
  WirePod<uint32_t>(out, size);
  out->append(message.data(), size);
}

Status DecodeError(std::string_view payload, ErrorMsg* msg) {
  WireReader reader(payload);
  uint32_t size = 0;
  if (!reader.Read(&msg->code) || !reader.Read(&size) ||
      size > kMaxErrorBytes || !reader.ReadBytes(&msg->message, size) ||
      !reader.done()) {
    return Corrupt("error");
  }
  return Status::OK();
}

Status ErrorToStatus(const ErrorMsg& msg) {
  const StatusCode code = static_cast<StatusCode>(msg.code);
  switch (code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kOutOfRange:
    case StatusCode::kInternal:
    case StatusCode::kUnimplemented:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
      return Status(code, msg.message);
  }
  return Status::Internal("remote error with unknown code: " + msg.message);
}

}  // namespace net
}  // namespace cinderella
