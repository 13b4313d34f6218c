#include "core/snapshot.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <type_traits>
#include <istream>
#include <optional>
#include <ostream>
#include <vector>

namespace cinderella {
namespace {

constexpr uint32_t kMagic = 0x434e4443;  // "CDNC"
// Version 2 adds each partition's split starters after its rows; version
// 1 snapshots still load, with starters re-seeded lazily.
constexpr uint32_t kVersion = 2;

// -- primitive writers/readers ------------------------------------------------

template <typename T>
void WritePod(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

void WriteString(std::ostream& out, const std::string& s) {
  WritePod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

template <typename T>
Status ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  if (!in.good()) return Status::OutOfRange("truncated snapshot");
  return Status::OK();
}

Status ReadString(std::istream& in, std::string* s) {
  uint32_t size = 0;
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &size));
  if (size > (1u << 28)) return Status::OutOfRange("corrupt string length");
  s->resize(size);
  in.read(s->data(), size);
  if (!in.good() && size > 0) return Status::OutOfRange("truncated snapshot");
  return Status::OK();
}

void WriteSynopsis(std::ostream& out, const Synopsis& synopsis) {
  const auto ids = synopsis.ToIds();
  WritePod<uint32_t>(out, static_cast<uint32_t>(ids.size()));
  for (AttributeId id : ids) WritePod<uint32_t>(out, id);
}

Status ReadSynopsis(std::istream& in, Synopsis* synopsis) {
  uint32_t count = 0;
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &count));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id = 0;
    CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &id));
    synopsis->Add(id);
  }
  return Status::OK();
}

void WriteValue(std::ostream& out, const Value& value) {
  WritePod<uint8_t>(out, static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ValueType::kInt64:
      WritePod<int64_t>(out, value.as_int64());
      break;
    case ValueType::kDouble:
      WritePod<double>(out, value.as_double());
      break;
    case ValueType::kString:
      WriteString(out, value.as_string());
      break;
  }
}

Status ReadValue(std::istream& in, Value* value) {
  uint8_t type = 0;
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &type));
  switch (static_cast<ValueType>(type)) {
    case ValueType::kInt64: {
      int64_t v = 0;
      CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &v));
      *value = Value(v);
      return Status::OK();
    }
    case ValueType::kDouble: {
      double v = 0;
      CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &v));
      *value = Value(v);
      return Status::OK();
    }
    case ValueType::kString: {
      std::string v;
      CINDERELLA_RETURN_IF_ERROR(ReadString(in, &v));
      *value = Value(std::move(v));
      return Status::OK();
    }
  }
  return Status::OutOfRange("corrupt value type");
}

}  // namespace

Status SaveSnapshot(const Cinderella& partitioner,
                    const AttributeDictionary& dictionary,
                    std::ostream& out) {
  WritePod(out, kMagic);
  WritePod(out, kVersion);

  // Configuration.
  const CinderellaConfig& config = partitioner.config();
  WritePod<double>(out, config.weight);
  WritePod<uint64_t>(out, config.max_size);
  WritePod<uint8_t>(out, static_cast<uint8_t>(config.measure));
  WritePod<uint8_t>(out, static_cast<uint8_t>(config.mode));
  WritePod<uint8_t>(out, config.normalize_rating ? 1 : 0);
  WritePod<uint8_t>(out, static_cast<uint8_t>(config.starter_policy));
  WritePod<uint8_t>(out, config.use_synopsis_index ? 1 : 0);
  WritePod<uint64_t>(out, config.starter_seed);
  WritePod<double>(out, config.dissolve_threshold);

  // Workload (workload-based mode).
  const auto& workload = partitioner.workload();
  WritePod<uint32_t>(out, static_cast<uint32_t>(workload.size()));
  for (const Synopsis& query : workload) WriteSynopsis(out, query);

  // Dictionary, in id order.
  WritePod<uint32_t>(out, static_cast<uint32_t>(dictionary.size()));
  for (AttributeId id = 0; id < dictionary.size(); ++id) {
    auto name = dictionary.Name(id);
    CINDERELLA_RETURN_IF_ERROR(name.status());
    WriteString(out, name.value());
  }

  // Partitions. Rows are streamed residency-agnostically: a cold
  // partition's rows come back from its page chain (in chain order), so a
  // snapshot of a tiered table is identical in meaning to one of an
  // all-hot table — restore always starts hot.
  WritePod<uint32_t>(
      out, static_cast<uint32_t>(partitioner.catalog().partition_count()));
  Status row_error;
  partitioner.catalog().ForEachPartition([&](const Partition& partition) {
    if (!row_error.ok()) return;
    WritePod<uint64_t>(out, partition.entity_count());
    const Status streamed =
        partitioner.ForEachRowOf(partition, [&](const Row& row) {
          WritePod<uint64_t>(out, row.id());
          WritePod<uint32_t>(out, static_cast<uint32_t>(row.attribute_count()));
          for (const Row::Cell& cell : row.cells()) {
            WritePod<uint32_t>(out, cell.attribute);
            WriteValue(out, cell.value);
          }
        });
    if (!streamed.ok()) row_error = streamed;
    // Split starters: a present flag and the entity id per slot; the
    // starter's synopsis follows from its row.
    for (const std::optional<Partition::Starter>* starter :
         {&partition.starter_a(), &partition.starter_b()}) {
      WritePod<uint8_t>(out, starter->has_value() ? 1 : 0);
      WritePod<uint64_t>(out, starter->has_value() ? (*starter)->entity : 0);
    }
  });
  CINDERELLA_RETURN_IF_ERROR(row_error);

  if (!out.good()) return Status::Internal("write failure");
  return Status::OK();
}

StatusOr<RestoredSnapshot> LoadSnapshot(std::istream& in) {
  uint32_t magic = 0;
  uint32_t version = 0;
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &magic));
  if (magic != kMagic) {
    return Status::InvalidArgument("not a Cinderella snapshot");
  }
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &version));
  if (version != 1 && version != kVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version));
  }

  CinderellaConfig config;
  uint8_t measure = 0;
  uint8_t mode = 0;
  uint8_t normalize = 0;
  uint8_t policy = 0;
  uint8_t use_index = 0;
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &config.weight));
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &config.max_size));
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &measure));
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &mode));
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &normalize));
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &policy));
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &use_index));
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &config.starter_seed));
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &config.dissolve_threshold));
  if (measure > 2 || mode > 1 || policy > 2) {
    return Status::OutOfRange("corrupt snapshot config");
  }
  config.measure = static_cast<SizeMeasure>(measure);
  config.mode = static_cast<SynopsisMode>(mode);
  config.normalize_rating = normalize != 0;
  config.starter_policy = static_cast<StarterPolicy>(policy);
  config.use_synopsis_index = use_index != 0;

  uint32_t workload_size = 0;
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &workload_size));
  std::vector<Synopsis> workload(workload_size);
  for (Synopsis& query : workload) {
    CINDERELLA_RETURN_IF_ERROR(ReadSynopsis(in, &query));
  }

  RestoredSnapshot restored;
  restored.dictionary = std::make_unique<AttributeDictionary>();
  uint32_t dictionary_size = 0;
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &dictionary_size));
  for (uint32_t i = 0; i < dictionary_size; ++i) {
    std::string name;
    CINDERELLA_RETURN_IF_ERROR(ReadString(in, &name));
    if (restored.dictionary->GetOrCreate(name) != i) {
      return Status::OutOfRange("duplicate dictionary entry in snapshot");
    }
  }

  StatusOr<std::unique_ptr<Cinderella>> created =
      config.mode == SynopsisMode::kWorkloadBased
          ? Cinderella::Create(config, std::move(workload))
          : Cinderella::Create(config);
  CINDERELLA_RETURN_IF_ERROR(created.status());
  restored.partitioner = std::move(created).value();

  uint32_t partition_count = 0;
  CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &partition_count));
  for (uint32_t p = 0; p < partition_count; ++p) {
    uint64_t row_count = 0;
    CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &row_count));
    if (row_count == 0) return Status::OutOfRange("empty partition in snapshot");
    std::vector<Row> rows;
    rows.reserve(row_count);
    for (uint64_t r = 0; r < row_count; ++r) {
      uint64_t entity = 0;
      uint32_t cells = 0;
      CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &entity));
      CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &cells));
      Row row(entity);
      for (uint32_t c = 0; c < cells; ++c) {
        uint32_t attribute = 0;
        Value value;
        CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &attribute));
        CINDERELLA_RETURN_IF_ERROR(ReadValue(in, &value));
        row.Set(attribute, std::move(value));
      }
      rows.push_back(std::move(row));
    }
    std::optional<EntityId> starters[2];
    if (version >= 2) {
      for (std::optional<EntityId>& starter : starters) {
        uint8_t present = 0;
        uint64_t entity = 0;
        CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &present));
        CINDERELLA_RETURN_IF_ERROR(ReadPod(in, &entity));
        if (present > 1) return Status::OutOfRange("corrupt starter flag");
        if (present == 1) starter = entity;
      }
    }
    CINDERELLA_RETURN_IF_ERROR(restored.partitioner->RestorePartition(
        std::move(rows), starters[0], starters[1]));
  }
  return restored;
}

Status SaveSnapshotToFile(const Cinderella& partitioner,
                          const AttributeDictionary& dictionary,
                          const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  CINDERELLA_RETURN_IF_ERROR(SaveSnapshot(partitioner, dictionary, out));
  // The stream still buffers the tail: close() writes it, and only the
  // stream state after close() says whether every byte reached the file.
  out.close();
  if (out.fail()) return Status::Internal("cannot write " + path);
  return Status::OK();
}

StatusOr<RestoredSnapshot> LoadSnapshotFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open " + path);
  }
  return LoadSnapshot(in);
}

}  // namespace cinderella
