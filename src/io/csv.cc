#include "io/csv.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

namespace cinderella {
namespace {

// Splits one RFC-4180 record (already stripped of the trailing newline is
// NOT assumed: reads from the stream and handles quoted newlines).
// Returns false on clean EOF before any character.
bool ReadRecord(std::istream& in, std::vector<std::string>* fields,
                bool* malformed) {
  fields->clear();
  *malformed = false;
  std::string field;
  bool in_quotes = false;
  bool any = false;
  int c;
  while ((c = in.get()) != EOF) {
    any = true;
    if (in_quotes) {
      if (c == '"') {
        if (in.peek() == '"') {
          in.get();
          field.push_back('"');
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(static_cast<char>(c));
      }
      continue;
    }
    switch (c) {
      case '"':
        if (field.empty()) {
          in_quotes = true;
        } else {
          field.push_back('"');  // Lenient: stray quote mid-field.
        }
        break;
      case ',':
        fields->push_back(std::move(field));
        field.clear();
        break;
      case '\r':
        if (in.peek() == '\n') in.get();
        [[fallthrough]];
      case '\n':
        fields->push_back(std::move(field));
        return true;
      default:
        field.push_back(static_cast<char>(c));
    }
  }
  if (in_quotes) *malformed = true;
  if (!any) return false;
  fields->push_back(std::move(field));
  return true;
}

bool NeedsQuoting(const std::string& s) {
  return s.find_first_of(",\"\n\r") != std::string::npos;
}

void WriteField(std::ostream& out, const std::string& s) {
  if (!NeedsQuoting(s)) {
    out << s;
    return;
  }
  out << '"';
  for (char c : s) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

Value ParseValue(const std::string& text, bool infer_types) {
  if (infer_types && !text.empty()) {
    char* end = nullptr;
    const long long i = std::strtoll(text.c_str(), &end, 10);
    if (end != text.c_str() && *end == '\0') return Value(int64_t{i});
    const double d = std::strtod(text.c_str(), &end);
    if (end != text.c_str() && *end == '\0') return Value(d);
  }
  return Value(text);
}

}  // namespace

Status ImportCsv(std::istream& in, UniversalTable* table,
                 const CsvOptions& options) {
  if (table == nullptr) {
    return Status::InvalidArgument("table must not be null");
  }
  std::vector<std::string> header;
  bool malformed = false;
  if (!ReadRecord(in, &header, &malformed) || malformed) {
    return Status::InvalidArgument("missing or malformed CSV header");
  }
  size_t id_column = header.size();
  size_t op_column = header.size();
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == options.id_column) id_column = i;
    if (!options.op_column.empty() && header[i] == options.op_column) {
      op_column = i;
    }
  }
  const bool has_ops = op_column < header.size();

  std::vector<std::string> fields;
  std::vector<Row> batch;
  std::vector<Mutation> mutations;
  EntityId next_auto_id = 0;
  size_t line = 1;
  while (ReadRecord(in, &fields, &malformed)) {
    ++line;
    if (malformed) {
      return Status::InvalidArgument("unterminated quote at record " +
                                     std::to_string(line));
    }
    if (fields.size() == 1 && fields[0].empty()) continue;  // Blank line.
    if (fields.size() > header.size()) {
      return Status::InvalidArgument("record " + std::to_string(line) +
                                     " has more fields than the header");
    }
    const bool has_id =
        id_column < fields.size() && !fields[id_column].empty();
    EntityId entity = next_auto_id;
    if (has_id) {
      char* end = nullptr;
      const unsigned long long parsed =
          std::strtoull(fields[id_column].c_str(), &end, 10);
      if (end == fields[id_column].c_str() || *end != '\0') {
        return Status::InvalidArgument("record " + std::to_string(line) +
                                       ": id is not an integer");
      }
      entity = parsed;
    }
    next_auto_id = std::max(next_auto_id, entity + 1);

    Mutation::Kind kind = Mutation::Kind::kInsert;
    if (has_ops && op_column < fields.size()) {
      const std::string& op = fields[op_column];
      if (op.empty() || op == "insert") {
        kind = Mutation::Kind::kInsert;
      } else if (op == "update") {
        kind = Mutation::Kind::kUpdate;
      } else if (op == "delete") {
        kind = Mutation::Kind::kDelete;
      } else {
        return Status::InvalidArgument("record " + std::to_string(line) +
                                       ": unknown op '" + op + "'");
      }
    }
    if (kind == Mutation::Kind::kDelete) {
      if (!has_id) {
        return Status::InvalidArgument("record " + std::to_string(line) +
                                       ": delete needs an explicit id");
      }
      if (options.batch_rows == 0) {
        CINDERELLA_RETURN_IF_ERROR(table->Delete(entity));
        continue;
      }
      mutations.push_back(Mutation::Delete(entity));
    } else {
      if (options.batch_rows == 0 && !has_ops) {
        // Historical trigger path: one Insert per record, by name.
        std::vector<UniversalTable::NamedValue> values;
        for (size_t i = 0; i < fields.size(); ++i) {
          if (i == id_column || i == op_column || fields[i].empty()) continue;
          values.emplace_back(header[i],
                              ParseValue(fields[i], options.infer_types));
        }
        CINDERELLA_RETURN_IF_ERROR(table->Insert(entity, values));
        continue;
      }
      Row row(entity);
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i == id_column || i == op_column || fields[i].empty()) continue;
        row.Set(table->dictionary().GetOrCreate(header[i]),
                ParseValue(fields[i], options.infer_types));
      }
      if (options.batch_rows == 0) {
        // Serial op-stream dispatch.
        CINDERELLA_RETURN_IF_ERROR(kind == Mutation::Kind::kUpdate
                                       ? table->UpdateRow(std::move(row))
                                       : table->InsertRow(std::move(row)));
        continue;
      }
      if (has_ops) {
        mutations.push_back(kind == Mutation::Kind::kUpdate
                                ? Mutation::Update(std::move(row))
                                : Mutation::Insert(std::move(row)));
      } else {
        batch.push_back(std::move(row));
      }
    }
    if (batch.size() >= options.batch_rows && !batch.empty()) {
      CINDERELLA_RETURN_IF_ERROR(table->InsertBatch(std::move(batch)));
      batch.clear();
    }
    if (mutations.size() >= options.batch_rows && !mutations.empty()) {
      CINDERELLA_RETURN_IF_ERROR(table->ApplyMutations(std::move(mutations)));
      mutations.clear();
    }
  }
  if (!batch.empty()) {
    CINDERELLA_RETURN_IF_ERROR(table->InsertBatch(std::move(batch)));
  }
  if (!mutations.empty()) {
    CINDERELLA_RETURN_IF_ERROR(table->ApplyMutations(std::move(mutations)));
  }
  return Status::OK();
}

Status ExportCsv(const UniversalTable& table, std::ostream& out,
                 const CsvOptions& options) {
  const AttributeDictionary& dictionary = table.dictionary();
  WriteField(out, options.id_column);
  for (AttributeId id = 0; id < dictionary.size(); ++id) {
    out << ',';
    auto name = dictionary.Name(id);
    CINDERELLA_RETURN_IF_ERROR(name.status());
    WriteField(out, name.value());
  }
  out << '\n';

  // Deterministic order: every row, whichever tier holds it, sorted by
  // entity id.
  std::vector<Row> rows;
  rows.reserve(table.entity_count());
  Status read;
  table.catalog().ForEachPartition([&](const Partition& partition) {
    if (!read.ok()) return;
    read = partition.ForEachRow([&](const Row& row) { rows.push_back(row); });
  });
  CINDERELLA_RETURN_IF_ERROR(read);
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.id() < b.id(); });

  for (const Row& row : rows) {
    out << row.id();
    for (AttributeId id = 0; id < dictionary.size(); ++id) {
      out << ',';
      const Value* value = row.Get(id);
      if (value != nullptr) WriteField(out, value->ToString());
    }
    out << '\n';
  }
  if (!out.good()) return Status::Internal("write failure");
  return Status::OK();
}

Status ImportCsvFromFile(const std::string& path, UniversalTable* table,
                         const CsvOptions& options) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  return ImportCsv(in, table, options);
}

Status ExportCsvToFile(const UniversalTable& table, const std::string& path,
                       const CsvOptions& options) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  return ExportCsv(table, out, options);
}

}  // namespace cinderella
