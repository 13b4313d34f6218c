#ifndef CINDERELLA_STORAGE_ROW_H_
#define CINDERELLA_STORAGE_ROW_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "storage/value.h"
#include "synopsis/synopsis.h"

namespace cinderella {

/// Stable identifier of an entity in the universal table.
using EntityId = uint64_t;

/// A sparse universal-table row: only instantiated attributes are stored,
/// as (attribute id, value) cells kept sorted by attribute id.
///
/// This is the "interpreted attribute storage format" family of sparse
/// representations the paper cites ([3]): per-row attribute lists instead
/// of a wide null-padded tuple.
class Row {
 public:
  /// One instantiated attribute.
  struct Cell {
    AttributeId attribute;
    Value value;
  };

  Row() = default;
  explicit Row(EntityId id) : id_(id) {}
  /// A row holding `cells`, which must ascend strictly by attribute id
  /// (a decoder that reads cells in that order, or a copied RowView).
  Row(EntityId id, std::vector<Cell> cells)
      : id_(id), cells_(std::move(cells)) {}

  EntityId id() const { return id_; }
  void set_id(EntityId id) { id_ = id; }

  /// Sets `attribute` to `value`, overwriting an existing cell.
  void Set(AttributeId attribute, Value value);

  /// Removes the cell for `attribute` if present; returns whether it existed.
  bool Erase(AttributeId attribute);

  /// Returns the value for `attribute`, or nullptr if not instantiated.
  const Value* Get(AttributeId attribute) const;

  bool Has(AttributeId attribute) const { return Get(attribute) != nullptr; }

  /// Number of instantiated attributes.
  size_t attribute_count() const { return cells_.size(); }

  /// Byte footprint: 8 bytes of entity id plus, per cell, 4 bytes of
  /// attribute id and the value payload.
  uint64_t byte_size() const;

  /// The entity synopsis of the entity-based setup (Section III): the set
  /// of attributes the entity instantiates.
  Synopsis AttributeSynopsis() const;

  /// Cells sorted by attribute id.
  const std::vector<Cell>& cells() const { return cells_; }

 private:
  EntityId id_ = 0;
  std::vector<Cell> cells_;
};

/// A non-owning view of one row: the entity id plus a span of cells
/// sorted by attribute id. The scan path hands out RowViews so the same
/// predicate/projection code runs over heap-backed Rows (fetched from
/// cold page chains) and over the packed cell arrays of MVCC versions
/// (mvcc/partition_version.h) without copying either.
///
/// A default-constructed view is invalid (point-lookup miss). Lookup
/// semantics are exactly Row's: Get() binary-searches the sorted cells.
class RowView {
 public:
  RowView() = default;
  RowView(EntityId id, const Row::Cell* cells, size_t cell_count)
      : id_(id), cells_(cells), cell_count_(cell_count), valid_(true) {}

  /// Implicit on purpose: call sites holding a Row (tests, cold-chain
  /// scans) pass it wherever a RowView is consumed.
  RowView(const Row& row)  // NOLINT(google-explicit-constructor)
      : RowView(row.id(), row.cells().data(), row.cells().size()) {}

  /// False for a default-constructed view (e.g. a Find() miss).
  bool valid() const { return valid_; }

  EntityId id() const { return id_; }
  size_t attribute_count() const { return cell_count_; }

  /// The value for `attribute`, or nullptr if not instantiated.
  const Value* Get(AttributeId attribute) const;

  bool Has(AttributeId attribute) const { return Get(attribute) != nullptr; }

  /// Cells sorted by attribute id.
  const Row::Cell* begin() const { return cells_; }
  const Row::Cell* end() const { return cells_ + cell_count_; }

  /// Byte footprint, mirroring Row::byte_size().
  uint64_t byte_size() const;

  /// Owned deep copy (safe past the view's lifetime).
  Row ToRow() const;

 private:
  EntityId id_ = 0;
  const Row::Cell* cells_ = nullptr;
  size_t cell_count_ = 0;
  bool valid_ = false;
};

}  // namespace cinderella

#endif  // CINDERELLA_STORAGE_ROW_H_
