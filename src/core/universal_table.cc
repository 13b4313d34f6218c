#include "core/universal_table.h"

#include <optional>

#include "common/logging.h"

namespace cinderella {

UniversalTable::UniversalTable(std::unique_ptr<Partitioner> partitioner)
    : partitioner_(std::move(partitioner)) {
  CINDERELLA_CHECK(partitioner_ != nullptr);
}

UniversalTable::UniversalTable(std::unique_ptr<Partitioner> partitioner,
                               AttributeDictionary dictionary)
    : dictionary_(std::move(dictionary)),
      partitioner_(std::move(partitioner)) {
  CINDERELLA_CHECK(partitioner_ != nullptr);
}

Row UniversalTable::BuildRow(EntityId entity,
                             const std::vector<NamedValue>& attributes) {
  Row row(entity);
  for (const auto& [name, value] : attributes) {
    row.Set(dictionary_.GetOrCreate(name), value);
  }
  return row;
}

Status UniversalTable::Insert(EntityId entity,
                              const std::vector<NamedValue>& attributes) {
  return partitioner_->Insert(BuildRow(entity, attributes));
}

Status UniversalTable::InsertRow(Row row) {
  return partitioner_->Insert(std::move(row));
}

Status UniversalTable::InsertBatch(std::vector<Row> rows) {
  return partitioner_->InsertBatch(std::move(rows));
}

Status UniversalTable::Delete(EntityId entity) {
  return partitioner_->Delete(entity);
}

Status UniversalTable::DeleteBatch(const std::vector<EntityId>& entities) {
  return partitioner_->DeleteBatch(entities);
}

Status UniversalTable::Update(EntityId entity,
                              const std::vector<NamedValue>& attributes) {
  return partitioner_->Update(BuildRow(entity, attributes));
}

Status UniversalTable::UpdateRow(Row row) {
  return partitioner_->Update(std::move(row));
}

Status UniversalTable::UpdateBatch(std::vector<Row> rows) {
  return partitioner_->UpdateBatch(std::move(rows));
}

Status UniversalTable::ApplyMutations(std::vector<Mutation> ops,
                                      size_t* applied) {
  return partitioner_->ApplyMutations(std::move(ops), applied);
}

StatusOr<Row> UniversalTable::Get(EntityId entity) const {
  const auto home = partitioner_->catalog().FindEntity(entity);
  if (!home.has_value()) {
    return Status::NotFound("entity " + std::to_string(entity) +
                            " not in table");
  }
  const Partition* partition = partitioner_->catalog().GetPartition(*home);
  CINDERELLA_CHECK(partition != nullptr);
  if (!partition->cold()) {
    const Row* row = partition->segment().Find(entity);
    CINDERELLA_CHECK(row != nullptr);
    return *row;
  }
  // A cold partition has no point index: stream its chain.
  std::optional<Row> found;
  CINDERELLA_RETURN_IF_ERROR(partition->ForEachRow([&](const Row& row) {
    if (row.id() == entity) found = row;
  }));
  if (!found.has_value()) {
    return Status::Internal("entity " + std::to_string(entity) +
                            " missing from its cold partition's chain");
  }
  return *std::move(found);
}

}  // namespace cinderella
