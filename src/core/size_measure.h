#ifndef CINDERELLA_CORE_SIZE_MEASURE_H_
#define CINDERELLA_CORE_SIZE_MEASURE_H_

#include <cstdint>

#include "storage/row.h"

namespace cinderella {

/// Unit of the paper's SIZE() function (Definition 1: "how much has to be
/// read to scan the entity or all entities in a partition").
///
/// Algorithm 1 uses SIZE() uniformly for the rating and the capacity check
/// (`SIZE(p) + SIZE(e) > MAXSIZE`). The paper's experiments measure the
/// partition size limit B in *entities*, which corresponds to
/// kEntityCount; the other two measures are supported for byte- or
/// cell-bounded partitions (e.g. disk pages).
enum class SizeMeasure {
  kEntityCount,     // SIZE(e) = 1
  kAttributeCount,  // SIZE(e) = number of instantiated attributes
  kByteSize,        // SIZE(e) = byte footprint of the row
};

/// Returns a stable display name ("entities", "cells", "bytes").
const char* SizeMeasureToString(SizeMeasure measure);

/// SIZE(e) for a row under the given measure.
inline uint64_t RowSize(const Row& row, SizeMeasure measure) {
  switch (measure) {
    case SizeMeasure::kEntityCount:
      return 1;
    case SizeMeasure::kAttributeCount:
      return row.attribute_count();
    case SizeMeasure::kByteSize:
      return row.byte_size();
  }
  return 1;
}

/// SIZE(e) for a borrowed row view (packed snapshot rows take this
/// path — same definition as RowSize).
inline uint64_t RowViewSize(const RowView& row, SizeMeasure measure) {
  switch (measure) {
    case SizeMeasure::kEntityCount:
      return 1;
    case SizeMeasure::kAttributeCount:
      return row.attribute_count();
    case SizeMeasure::kByteSize:
      return row.byte_size();
  }
  return 1;
}

}  // namespace cinderella

#endif  // CINDERELLA_CORE_SIZE_MEASURE_H_
