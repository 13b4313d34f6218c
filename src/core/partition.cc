#include "core/partition.h"

#include <utility>

#include "common/logging.h"

namespace cinderella {

Partition::Partition(PartitionId id, bool separate_rating_synopsis)
    : id_(id), separate_rating_(separate_rating_synopsis) {}

Status Partition::AddRow(Row row, const Synopsis& rating_synopsis,
                         std::vector<AttributeId>* rating_ids_added) {
  CINDERELLA_DCHECK(!cold());
  const Synopsis attributes = row.AttributeSynopsis();
  CINDERELLA_RETURN_IF_ERROR(segment_.Insert(std::move(row)));
  if (separate_rating_) {
    attributes_.Add(attributes);
    rating_.Add(rating_synopsis, rating_ids_added);
  } else {
    attributes_.Add(attributes, rating_ids_added);
  }
  return Status::OK();
}

StatusOr<Row> Partition::RemoveRow(EntityId entity,
                                   const Synopsis& rating_synopsis,
                                   std::vector<AttributeId>* rating_ids_removed) {
  CINDERELLA_DCHECK(!cold());
  StatusOr<Row> removed = segment_.Remove(entity);
  if (!removed.ok()) return removed;
  const Synopsis attributes = removed.value().AttributeSynopsis();
  if (separate_rating_) {
    attributes_.Remove(attributes);
    rating_.Remove(rating_synopsis, rating_ids_removed);
  } else {
    attributes_.Remove(attributes, rating_ids_removed);
  }
  if (starter_a_.has_value() && starter_a_->entity == entity) {
    starter_a_.reset();
  }
  if (starter_b_.has_value() && starter_b_->entity == entity) {
    starter_b_.reset();
  }
  return removed;
}

Status Partition::ReplaceRow(Row row, const Synopsis& old_rating_synopsis,
                             const Synopsis& new_rating_synopsis,
                             std::vector<AttributeId>* rating_ids_added,
                             std::vector<AttributeId>* rating_ids_removed) {
  CINDERELLA_DCHECK(!cold());
  const EntityId entity = row.id();
  const Row* old_row = segment_.Find(entity);
  if (old_row == nullptr) {
    return Status::NotFound("entity " + std::to_string(entity) +
                            " not in partition");
  }
  const Synopsis old_attributes = old_row->AttributeSynopsis();
  const Synopsis new_attributes = row.AttributeSynopsis();
  CINDERELLA_RETURN_IF_ERROR(segment_.Replace(std::move(row)));
  if (separate_rating_) {
    attributes_.Add(new_attributes);
    attributes_.Remove(old_attributes);
    rating_.Add(new_rating_synopsis, rating_ids_added);
    rating_.Remove(old_rating_synopsis, rating_ids_removed);
  } else {
    attributes_.Add(new_attributes, rating_ids_added);
    attributes_.Remove(old_attributes, rating_ids_removed);
  }
  // Keep a starter's remembered synopsis in sync with its updated row.
  if (starter_a_.has_value() && starter_a_->entity == entity) {
    starter_a_->synopsis = new_rating_synopsis;
  }
  if (starter_b_.has_value() && starter_b_->entity == entity) {
    starter_b_->synopsis = new_rating_synopsis;
  }
  return Status::OK();
}

Status Partition::ForEachRow(
    const std::function<void(const Row&)>& fn) const {
  if (cold_chain_ == nullptr) {
    for (const Row& row : segment_.rows()) fn(row);
    return Status::OK();
  }
  return cold_chain_->tier->ReadChain(*cold_chain_,
                                      [&](Row&& row) { fn(row); });
}

uint64_t Partition::Size(SizeMeasure measure) const {
  if (cold_chain_ != nullptr) {
    switch (measure) {
      case SizeMeasure::kEntityCount:
        return cold_chain_->entities;
      case SizeMeasure::kAttributeCount:
        return cold_chain_->cells;
      case SizeMeasure::kByteSize:
        return cold_chain_->bytes;
    }
    return 0;
  }
  switch (measure) {
    case SizeMeasure::kEntityCount:
      return segment_.entity_count();
    case SizeMeasure::kAttributeCount:
      return segment_.cell_count();
    case SizeMeasure::kByteSize:
      return segment_.byte_size();
  }
  return 0;
}

double Partition::Sparseness() const {
  const size_t entities = entity_count();
  const size_t attributes = attribute_synopsis().Count();
  if (entities == 0 || attributes == 0) return 0.0;
  const uint64_t cells = cold_chain_ != nullptr ? cold_chain_->cells
                                                : segment_.cell_count();
  const double capacity =
      static_cast<double>(entities) * static_cast<double>(attributes);
  return 1.0 - static_cast<double>(cells) / capacity;
}

void Partition::SetCold(std::shared_ptr<const ColdChain> chain) {
  CINDERELLA_CHECK(cold_chain_ == nullptr && chain != nullptr);
  CINDERELLA_CHECK(chain->entities == segment_.entity_count() &&
                   chain->cells == segment_.cell_count() &&
                   chain->bytes == segment_.byte_size());
  (void)segment_.TakeAll();  // Rows live in the chain now.
  cold_chain_ = std::move(chain);
}

Status Partition::FaultIn(std::vector<Row> rows) {
  CINDERELLA_CHECK(cold_chain_ != nullptr);
  if (rows.size() != cold_chain_->entities) {
    return Status::Internal(
        "fault-in of partition " + std::to_string(id_) + " read " +
        std::to_string(rows.size()) + " rows, chain has " +
        std::to_string(cold_chain_->entities));
  }
  for (Row& row : rows) {
    CINDERELLA_RETURN_IF_ERROR(segment_.Insert(std::move(row)));
  }
  cold_chain_.reset();
  return Status::OK();
}

void Partition::ClearStarters() {
  starter_a_.reset();
  starter_b_.reset();
}

}  // namespace cinderella
