#include "core/efficiency.h"

#include "common/logging.h"

// Inline-only use of the snapshot types (ForEachPartition / ForEachRow /
// attribute_synopsis are all header-defined), so this adds no link
// dependency from cinderella_core to the mvcc library.
#include "mvcc/partition_version.h"

namespace cinderella {
namespace {

/// True iff the row instantiates any attribute of `query` — the
/// sgn(|e ∧ q|) test of Definition 1 evaluated on a borrowed view
/// (packed snapshot rows carry no materialized synopsis; their cells are
/// sorted by attribute id, so this walks at most |e| cells).
bool RowIntersects(const RowView& row, const Synopsis& query) {
  for (const Row::Cell& cell : row) {
    if (query.Contains(cell.attribute)) return true;
  }
  return false;
}

uint64_t VersionSize(const PartitionVersion& version, SizeMeasure measure) {
  switch (measure) {
    case SizeMeasure::kEntityCount:
      return version.entity_count();
    case SizeMeasure::kAttributeCount:
      return version.cell_count();
    case SizeMeasure::kByteSize:
      return version.byte_size();
  }
  return version.entity_count();
}

}  // namespace

EfficiencyBreakdown ComputeEfficiency(const PartitionCatalog& catalog,
                                      const std::vector<Synopsis>& workload,
                                      const std::vector<double>& weights,
                                      SizeMeasure measure) {
  EfficiencyBreakdown result;
  auto weight = [&](size_t i) { return i < weights.size() ? weights[i] : 1.0; };
  std::vector<size_t> readers;  // Queries that read the current partition.
  catalog.ForEachPartition([&](const Partition& partition) {
    readers.clear();
    for (size_t i = 0; i < workload.size(); ++i) {
      if (partition.attribute_synopsis().Intersects(workload[i])) {
        readers.push_back(i);
      }
    }
    if (readers.empty()) return;
    const double size = static_cast<double>(partition.Size(measure));
    for (const size_t i : readers) result.read += weight(i) * size;
    // Every row counts whichever tier holds it: a cold partition streams
    // its chain once for the whole workload. A chain read fails only on
    // store corruption, and this diagnostic has no status channel, so a
    // failed read is fatal rather than a silently low ratio.
    const Status read = partition.ForEachRow([&](const Row& row) {
      const Synopsis attributes = row.AttributeSynopsis();
      const double row_size = static_cast<double>(RowSize(row, measure));
      for (const size_t i : readers) {
        if (attributes.Intersects(workload[i])) {
          result.relevant += weight(i) * row_size;
        }
      }
    });
    CINDERELLA_CHECK(read.ok());
  });
  result.efficiency = result.read > 0.0 ? result.relevant / result.read : 1.0;
  return result;
}

EfficiencyBreakdown ComputeEfficiency(const PartitionCatalog& catalog,
                                      const std::vector<Synopsis>& workload,
                                      SizeMeasure measure) {
  return ComputeEfficiency(catalog, workload, std::vector<double>(), measure);
}

EfficiencyBreakdown ComputeEfficiency(const CatalogView& view,
                                      const std::vector<Synopsis>& workload,
                                      const std::vector<double>& weights,
                                      SizeMeasure measure) {
  EfficiencyBreakdown result;
  for (size_t i = 0; i < workload.size(); ++i) {
    const Synopsis& query = workload[i];
    const double weight = i < weights.size() ? weights[i] : 1.0;
    view.ForEachPartition([&](const PartitionVersion& version) {
      // Hot residents only: the tuner scores plans with this overload on
      // every tick and must not pay chain I/O, so cold versions (which
      // carry no packed rows) are left out of both sums.
      if (version.cold()) return;
      if (!version.attribute_synopsis().Intersects(query)) return;
      result.read +=
          weight * static_cast<double>(VersionSize(version, measure));
      version.ForEachRow([&](const RowView& row) {
        if (RowIntersects(row, query)) {
          result.relevant +=
              weight * static_cast<double>(RowViewSize(row, measure));
        }
      });
    });
  }
  result.efficiency = result.read > 0.0 ? result.relevant / result.read : 1.0;
  return result;
}

EfficiencyBreakdown ComputeEfficiency(const CatalogView& view,
                                      const std::vector<Synopsis>& workload,
                                      SizeMeasure measure) {
  return ComputeEfficiency(view, workload, std::vector<double>(), measure);
}

}  // namespace cinderella
