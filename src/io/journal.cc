#include "io/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace cinderella {
namespace {

// Entry wire format: u8 kind, then either u64 entity (delete) or the row:
// u64 id, u32 cell count, per cell u32 attribute, u8 type, payload.

// Flush the writer's user-space buffer once it exceeds this; keeps memory
// bounded for arbitrarily large group-commit batches.
constexpr size_t kWriterFlushBytes = 1 << 20;

template <typename T>
void WritePod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.good();
}

void WriteRowPayload(std::string* out, const Row& row) {
  WritePod<uint64_t>(out, row.id());
  WritePod<uint32_t>(out, static_cast<uint32_t>(row.attribute_count()));
  for (const Row::Cell& cell : row.cells()) {
    WritePod<uint32_t>(out, cell.attribute);
    WritePod<uint8_t>(out, static_cast<uint8_t>(cell.value.type()));
    switch (cell.value.type()) {
      case ValueType::kInt64:
        WritePod<int64_t>(out, cell.value.as_int64());
        break;
      case ValueType::kDouble:
        WritePod<double>(out, cell.value.as_double());
        break;
      case ValueType::kString: {
        const std::string& s = cell.value.as_string();
        WritePod<uint32_t>(out, static_cast<uint32_t>(s.size()));
        out->append(s.data(), s.size());
        break;
      }
    }
  }
}

// Returns false on a torn/truncated payload.
bool ReadRowPayload(std::ifstream& in, Row* row) {
  uint64_t id = 0;
  uint32_t cells = 0;
  if (!ReadPod(in, &id) || !ReadPod(in, &cells)) return false;
  if (cells > (1u << 24)) return false;  // Corrupt.
  row->set_id(id);
  for (uint32_t c = 0; c < cells; ++c) {
    uint32_t attribute = 0;
    uint8_t type = 0;
    if (!ReadPod(in, &attribute) || !ReadPod(in, &type)) return false;
    switch (static_cast<ValueType>(type)) {
      case ValueType::kInt64: {
        int64_t v = 0;
        if (!ReadPod(in, &v)) return false;
        row->Set(attribute, Value(v));
        break;
      }
      case ValueType::kDouble: {
        double v = 0;
        if (!ReadPod(in, &v)) return false;
        row->Set(attribute, Value(v));
        break;
      }
      case ValueType::kString: {
        uint32_t size = 0;
        if (!ReadPod(in, &size) || size > (1u << 28)) return false;
        std::string s(size, '\0');
        in.read(s.data(), size);
        if (!in.good() && size > 0) return false;
        row->Set(attribute, Value(std::move(s)));
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

}  // namespace

// -- JournalWriter --------------------------------------------------------------

JournalWriter::JournalWriter(int fd) : fd_(fd) {}

JournalWriter::~JournalWriter() {
  const Status closed = Close();
  (void)closed;  // Destructors cannot report write failures.
}

Status JournalWriter::Close() {
  if (fd_ < 0) return Status::OK();
  Status status = FlushBuffer();
  buffer_.clear();
  if (::close(fd_) != 0 && status.ok()) {
    status = Status::Internal(std::string("journal close failure: ") +
                              std::strerror(errno));
  }
  fd_ = -1;
  return status;
}

StatusOr<std::unique_ptr<JournalWriter>> JournalWriter::Open(
    const std::string& path, bool truncate) {
  const int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : O_APPEND);
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::InvalidArgument("cannot open " + path + " for append: " +
                                   std::strerror(errno));
  }
  return std::unique_ptr<JournalWriter>(new JournalWriter(fd));
}

Status JournalWriter::FlushBuffer() {
  size_t offset = 0;
  while (offset < buffer_.size()) {
    const ssize_t written =
        ::write(fd_, buffer_.data() + offset, buffer_.size() - offset);
    if (written < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("journal write failure: ") +
                              std::strerror(errno));
    }
    offset += static_cast<size_t>(written);
  }
  buffer_.clear();
  return Status::OK();
}

Status JournalWriter::LogRow(JournalEntry::Kind kind, const Row& row) {
  WritePod<uint8_t>(&buffer_, static_cast<uint8_t>(kind));
  WriteRowPayload(&buffer_, row);
  ++entries_;
  if (buffer_.size() >= kWriterFlushBytes) return FlushBuffer();
  return Status::OK();
}

Status JournalWriter::LogInsert(const Row& row) {
  return LogRow(JournalEntry::Kind::kInsert, row);
}

Status JournalWriter::LogUpdate(const Row& row) {
  return LogRow(JournalEntry::Kind::kUpdate, row);
}

Status JournalWriter::LogMutationBatch(const std::vector<Mutation>& ops) {
  if (ops.empty()) return Status::OK();
  WritePod<uint8_t>(&buffer_,
                    static_cast<uint8_t>(JournalEntry::Kind::kMutationBatch));
  WritePod<uint32_t>(&buffer_, static_cast<uint32_t>(ops.size()));
  for (const Mutation& op : ops) {
    WritePod<uint8_t>(&buffer_, static_cast<uint8_t>(op.kind));
    if (op.kind == Mutation::Kind::kDelete) {
      WritePod<uint64_t>(&buffer_, op.entity);
    } else {
      WriteRowPayload(&buffer_, op.row);
    }
    ++entries_;
    if (buffer_.size() >= kWriterFlushBytes) {
      CINDERELLA_RETURN_IF_ERROR(FlushBuffer());
    }
  }
  return Status::OK();
}

Status JournalWriter::LogBatch(const std::vector<Row>& rows) {
  if (rows.empty()) return Status::OK();
  WritePod<uint8_t>(&buffer_,
                    static_cast<uint8_t>(JournalEntry::Kind::kMutationBatch));
  WritePod<uint32_t>(&buffer_, static_cast<uint32_t>(rows.size()));
  for (const Row& row : rows) {
    WritePod<uint8_t>(&buffer_,
                      static_cast<uint8_t>(JournalEntry::Kind::kInsert));
    WriteRowPayload(&buffer_, row);
    ++entries_;
    if (buffer_.size() >= kWriterFlushBytes) {
      CINDERELLA_RETURN_IF_ERROR(FlushBuffer());
    }
  }
  return Status::OK();
}

Status JournalWriter::LogDeleteBatch(const std::vector<EntityId>& entities) {
  if (entities.empty()) return Status::OK();
  WritePod<uint8_t>(&buffer_,
                    static_cast<uint8_t>(JournalEntry::Kind::kMutationBatch));
  WritePod<uint32_t>(&buffer_, static_cast<uint32_t>(entities.size()));
  for (const EntityId entity : entities) {
    WritePod<uint8_t>(&buffer_,
                      static_cast<uint8_t>(JournalEntry::Kind::kDelete));
    WritePod<uint64_t>(&buffer_, entity);
    ++entries_;
    if (buffer_.size() >= kWriterFlushBytes) {
      CINDERELLA_RETURN_IF_ERROR(FlushBuffer());
    }
  }
  return Status::OK();
}

Status JournalWriter::LogSpillSet(const std::vector<EntityId>& representatives) {
  WritePod<uint8_t>(&buffer_,
                    static_cast<uint8_t>(JournalEntry::Kind::kSpill));
  WritePod<uint32_t>(&buffer_,
                     static_cast<uint32_t>(representatives.size()));
  for (const EntityId entity : representatives) {
    WritePod<uint64_t>(&buffer_, entity);
  }
  ++entries_;
  if (buffer_.size() >= kWriterFlushBytes) return FlushBuffer();
  return Status::OK();
}

Status JournalWriter::LogDelete(EntityId entity) {
  WritePod<uint8_t>(&buffer_,
                    static_cast<uint8_t>(JournalEntry::Kind::kDelete));
  WritePod<uint64_t>(&buffer_, entity);
  ++entries_;
  if (buffer_.size() >= kWriterFlushBytes) return FlushBuffer();
  return Status::OK();
}

Status JournalWriter::LogAttribute(AttributeId attribute,
                                   const std::string& name) {
  WritePod<uint8_t>(&buffer_,
                    static_cast<uint8_t>(JournalEntry::Kind::kAttribute));
  WritePod<uint32_t>(&buffer_, attribute);
  WritePod<uint32_t>(&buffer_, static_cast<uint32_t>(name.size()));
  buffer_.append(name.data(), name.size());
  ++entries_;
  if (buffer_.size() >= kWriterFlushBytes) return FlushBuffer();
  return Status::OK();
}

Status JournalWriter::Sync() {
  CINDERELLA_RETURN_IF_ERROR(FlushBuffer());
  if (::fsync(fd_) != 0) {
    return Status::Internal(std::string("journal fsync failure: ") +
                            std::strerror(errno));
  }
  ++syncs_;
  return Status::OK();
}

// -- JournalReader --------------------------------------------------------------

JournalReader::JournalReader(std::ifstream in) : in_(std::move(in)) {}

StatusOr<std::unique_ptr<JournalReader>> JournalReader::Open(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open " + path);
  }
  return std::unique_ptr<JournalReader>(new JournalReader(std::move(in)));
}

StatusOr<bool> JournalReader::Next(JournalEntry* entry) {
  if (batch_remaining_ > 0) return NextBatchOp(entry);
  uint8_t kind = 0;
  if (!ReadPod(in_, &kind)) return false;  // Clean EOF.
  switch (static_cast<JournalEntry::Kind>(kind)) {
    case JournalEntry::Kind::kMutationBatch: {
      uint32_t count = 0;
      if (!ReadPod(in_, &count)) {
        torn_tail_ = true;
        return false;
      }
      if (count > (1u << 24)) {
        return Status::OutOfRange("corrupt mutation batch count " +
                                  std::to_string(count));
      }
      batch_remaining_ = count;
      if (count == 0) return Next(entry);  // Empty record; skip.
      return NextBatchOp(entry);
    }
    case JournalEntry::Kind::kInsert:
    case JournalEntry::Kind::kUpdate: {
      entry->kind = static_cast<JournalEntry::Kind>(kind);
      entry->row = Row();
      if (!ReadRowPayload(in_, &entry->row)) {
        torn_tail_ = true;
        return false;
      }
      entry->entity = entry->row.id();
      return true;
    }
    case JournalEntry::Kind::kDelete: {
      entry->kind = JournalEntry::Kind::kDelete;
      uint64_t entity = 0;
      if (!ReadPod(in_, &entity)) {
        torn_tail_ = true;
        return false;
      }
      entry->entity = entity;
      entry->row = Row();
      return true;
    }
    case JournalEntry::Kind::kAttribute: {
      entry->kind = JournalEntry::Kind::kAttribute;
      uint32_t attribute = 0;
      uint32_t size = 0;
      if (!ReadPod(in_, &attribute) || !ReadPod(in_, &size) ||
          size > (1u << 20)) {
        torn_tail_ = true;
        return false;
      }
      entry->attribute = attribute;
      entry->name.resize(size);
      in_.read(entry->name.data(), size);
      if (!in_.good() && size > 0) {
        torn_tail_ = true;
        return false;
      }
      entry->row = Row();
      return true;
    }
    case JournalEntry::Kind::kSpill: {
      entry->kind = JournalEntry::Kind::kSpill;
      uint32_t count = 0;
      if (!ReadPod(in_, &count) || count > (1u << 24)) {
        torn_tail_ = true;
        return false;
      }
      entry->cold_set.clear();
      entry->cold_set.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint64_t entity = 0;
        if (!ReadPod(in_, &entity)) {
          torn_tail_ = true;
          return false;
        }
        entry->cold_set.push_back(entity);
      }
      entry->row = Row();
      return true;
    }
    default:
      return Status::OutOfRange("corrupt journal entry kind " +
                                std::to_string(kind));
  }
}

StatusOr<bool> JournalReader::NextBatchOp(JournalEntry* entry) {
  uint8_t kind = 0;
  if (!ReadPod(in_, &kind)) {
    // A batch announced more ops than the file holds: torn mid-batch. The
    // decoded prefix stays valid (op-granular recovery).
    torn_tail_ = true;
    return false;
  }
  switch (static_cast<JournalEntry::Kind>(kind)) {
    case JournalEntry::Kind::kInsert:
    case JournalEntry::Kind::kUpdate: {
      entry->kind = static_cast<JournalEntry::Kind>(kind);
      entry->row = Row();
      if (!ReadRowPayload(in_, &entry->row)) {
        torn_tail_ = true;
        return false;
      }
      entry->entity = entry->row.id();
      break;
    }
    case JournalEntry::Kind::kDelete: {
      entry->kind = JournalEntry::Kind::kDelete;
      uint64_t entity = 0;
      if (!ReadPod(in_, &entity)) {
        torn_tail_ = true;
        return false;
      }
      entry->entity = entity;
      entry->row = Row();
      break;
    }
    default:
      return Status::OutOfRange("corrupt mutation batch op kind " +
                                std::to_string(kind));
  }
  --batch_remaining_;
  return true;
}

// -- Replay ----------------------------------------------------------------------

StatusOr<uint64_t> ReplayJournal(const std::string& path,
                                 Partitioner* partitioner,
                                 AttributeDictionary* dictionary) {
  if (partitioner == nullptr) {
    return Status::InvalidArgument("partitioner must not be null");
  }
  auto reader = JournalReader::Open(path);
  if (!reader.ok()) {
    if (reader.status().code() == StatusCode::kNotFound) return uint64_t{0};
    return reader.status();
  }
  uint64_t applied = 0;
  JournalEntry entry;
  while (true) {
    StatusOr<bool> more = (*reader)->Next(&entry);
    CINDERELLA_RETURN_IF_ERROR(more.status());
    if (!*more) break;
    switch (entry.kind) {
      case JournalEntry::Kind::kInsert:
        CINDERELLA_RETURN_IF_ERROR(partitioner->Insert(std::move(entry.row)));
        break;
      case JournalEntry::Kind::kUpdate:
        CINDERELLA_RETURN_IF_ERROR(partitioner->Update(std::move(entry.row)));
        break;
      case JournalEntry::Kind::kDelete:
        CINDERELLA_RETURN_IF_ERROR(partitioner->Delete(entry.entity));
        break;
      case JournalEntry::Kind::kAttribute:
        if (dictionary != nullptr) {
          const AttributeId assigned = dictionary->GetOrCreate(entry.name);
          if (assigned != entry.attribute) {
            return Status::Internal(
                "dictionary replay mismatch for '" + entry.name + "': got " +
                std::to_string(assigned) + ", journal says " +
                std::to_string(entry.attribute));
          }
        }
        break;
      case JournalEntry::Kind::kSpill:
        // Tier placement needs a cold tier; standalone replay has none.
        break;
      case JournalEntry::Kind::kMutationBatch:
        // The reader expands batch records into their constituent ops and
        // never surfaces this kind.
        return Status::Internal("unexpanded mutation batch entry");
    }
    ++applied;
  }
  return applied;
}

}  // namespace cinderella
