#include "storage/row.h"

#include <algorithm>

namespace cinderella {
namespace {

struct CellLess {
  bool operator()(const Row::Cell& cell, AttributeId attribute) const {
    return cell.attribute < attribute;
  }
};

}  // namespace

void Row::Set(AttributeId attribute, Value value) {
  auto it = std::lower_bound(cells_.begin(), cells_.end(), attribute,
                             CellLess{});
  if (it != cells_.end() && it->attribute == attribute) {
    it->value = std::move(value);
    return;
  }
  cells_.insert(it, Cell{attribute, std::move(value)});
}

bool Row::Erase(AttributeId attribute) {
  auto it = std::lower_bound(cells_.begin(), cells_.end(), attribute,
                             CellLess{});
  if (it == cells_.end() || it->attribute != attribute) return false;
  cells_.erase(it);
  return true;
}

const Value* Row::Get(AttributeId attribute) const {
  auto it = std::lower_bound(cells_.begin(), cells_.end(), attribute,
                             CellLess{});
  if (it == cells_.end() || it->attribute != attribute) return nullptr;
  return &it->value;
}

uint64_t Row::byte_size() const {
  uint64_t total = 8;
  for (const Cell& cell : cells_) total += 4 + cell.value.byte_size();
  return total;
}

Synopsis Row::AttributeSynopsis() const {
  Synopsis s;
  for (const Cell& cell : cells_) s.Add(cell.attribute);
  return s;
}

const Value* RowView::Get(AttributeId attribute) const {
  const Row::Cell* it =
      std::lower_bound(cells_, cells_ + cell_count_, attribute, CellLess{});
  if (it == cells_ + cell_count_ || it->attribute != attribute) return nullptr;
  return &it->value;
}

uint64_t RowView::byte_size() const {
  uint64_t total = 8;
  for (const Row::Cell& cell : *this) total += 4 + cell.value.byte_size();
  return total;
}

Row RowView::ToRow() const {
  return Row(id_, std::vector<Row::Cell>(begin(), end()));
}

}  // namespace cinderella
