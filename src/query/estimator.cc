#include "query/estimator.h"

#include <algorithm>
#include <cstdio>

#include "mvcc/partition_version.h"
#include "query/scan_source.h"

namespace cinderella {
namespace {

/// Invokes `fn(version)` for every partition the view's synopsis tree
/// keeps as a candidate for `probe` (every partition without a tree).
/// Non-candidates cannot intersect the probe, and every caller below
/// prunes on Intersects, so the walk changes no per-partition
/// contribution; table-wide totals come from the view itself.
template <typename Fn>
void ForEachCandidate(const CatalogView& view, const Synopsis& probe,
                      Fn&& fn) {
  ForEachTreeCandidate(view, probe, fn, [](const PartitionVersion&) {});
}

}  // namespace

SelectivityEstimate EstimateSelectivity(const CatalogView& view,
                                        const Query& query) {
  SelectivityEstimate estimate;
  estimate.table_entities = view.entity_count();
  ForEachCandidate(view, query.attributes(),
                   [&](const PartitionVersion& partition) {
    if (!partition.attribute_synopsis().Intersects(query.attributes())) {
      return;
    }
    ++estimate.partitions_scanned;
    const uint64_t n = partition.entity_count();
    uint64_t sum = 0;
    uint64_t peak = 0;
    double miss_probability = 1.0;
    for (AttributeId attribute : query.projection()) {
      const uint64_t carriers = partition.AttributeCarrierCount(attribute);
      sum += carriers;
      peak = std::max(peak, carriers);
      miss_probability *=
          1.0 - static_cast<double>(carriers) / static_cast<double>(n);
    }
    estimate.rows_lower_bound += peak;
    estimate.rows_upper_bound += std::min(n, sum);
    estimate.rows_estimate +=
        static_cast<double>(n) * (1.0 - miss_probability);
  });
  estimate.partitions_pruned =
      view.partition_count() - estimate.partitions_scanned;
  return estimate;
}

GroupCardinalityEstimate EstimateGroupCardinality(const CatalogView& view,
                                                  AttributeId attribute) {
  GroupCardinalityEstimate estimate;
  estimate.table_entities = view.entity_count();
  view.ForEachPartition([&](const PartitionVersion& partition) {
    const uint64_t carriers = partition.AttributeCarrierCount(attribute);
    if (carriers == 0) return;
    ++estimate.partitions_carrying;
    estimate.carrier_rows += carriers;
    estimate.max_partition_carriers =
        std::max(estimate.max_partition_carriers, carriers);
  });
  return estimate;
}

std::string ExplainQuery(const CatalogView& view, const Query& query,
                         size_t max_partitions) {
  const SelectivityEstimate estimate = EstimateSelectivity(view, query);
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "query %s over %llu entities in %llu partitions\n",
                query.ToString().c_str(),
                static_cast<unsigned long long>(estimate.table_entities),
                static_cast<unsigned long long>(estimate.partitions_scanned +
                                                estimate.partitions_pruned));
  out += line;
  std::snprintf(
      line, sizeof(line),
      "scan %llu partitions, prune %llu; expected rows %.0f (bounds "
      "[%llu, %llu]), selectivity ~%.4f\n",
      static_cast<unsigned long long>(estimate.partitions_scanned),
      static_cast<unsigned long long>(estimate.partitions_pruned),
      estimate.rows_estimate,
      static_cast<unsigned long long>(estimate.rows_lower_bound),
      static_cast<unsigned long long>(estimate.rows_upper_bound),
      estimate.selectivity_estimate());
  out += line;

  size_t listed = 0;
  ForEachCandidate(view, query.attributes(),
                   [&](const PartitionVersion& partition) {
    if (!partition.attribute_synopsis().Intersects(query.attributes())) {
      return;
    }
    if (listed >= max_partitions) return;
    ++listed;
    uint64_t sum = 0;
    for (AttributeId attribute : query.projection()) {
      sum += partition.AttributeCarrierCount(attribute);
    }
    std::snprintf(line, sizeof(line),
                  "  scan partition %u: %zu entities, %zu attributes, <= "
                  "%llu matches\n",
                  partition.id(), partition.entity_count(),
                  partition.attribute_synopsis().Count(),
                  static_cast<unsigned long long>(
                      std::min<uint64_t>(partition.entity_count(), sum)));
    out += line;
  });
  if (listed < estimate.partitions_scanned) {
    std::snprintf(line, sizeof(line), "  ... %llu more partitions\n",
                  static_cast<unsigned long long>(estimate.partitions_scanned -
                                                  listed));
    out += line;
  }
  return out;
}

}  // namespace cinderella
