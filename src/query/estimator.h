#ifndef CINDERELLA_QUERY_ESTIMATOR_H_
#define CINDERELLA_QUERY_ESTIMATOR_H_

#include <string>

#include "core/catalog.h"
#include "query/query.h"

namespace cinderella {

/// Selectivity estimate for an attribute-set query, derived purely from
/// snapshot metadata (partition synopses and per-partition attribute
/// carrier counts) — no data access.
///
/// For an OR-of-IS-NOT-NULL query over attributes Q and a partition with
/// n entities and carrier counts c_a:
///   lower bound: max_a c_a           (every carrier of one attr matches)
///   upper bound: min(n, Σ_a c_a)     (union bound)
///   estimate:    n · (1 − Π_a (1 − c_a/n))   (attribute independence)
/// Summed over non-pruned partitions. Bounds are exact bounds; the
/// estimate is exact when the query has one attribute.
struct SelectivityEstimate {
  uint64_t table_entities = 0;
  uint64_t partitions_scanned = 0;  // Non-pruned partitions.
  uint64_t partitions_pruned = 0;
  uint64_t rows_lower_bound = 0;
  uint64_t rows_upper_bound = 0;
  double rows_estimate = 0.0;

  double selectivity_estimate() const {
    return table_entities > 0 ? rows_estimate / table_entities : 0.0;
  }
};

/// Metadata-only bounds on the number of distinct groups a GROUP BY over
/// one attribute can produce, derived from per-partition carrier counts.
/// A partition with c carriers of the group attribute contributes at most
/// c distinct keys, so Σ_p c_p upper-bounds the table-wide distinct
/// count; it is also exactly the number of rows an aggregation will
/// consume. The aggregation engine's strategy chooser refines the upper
/// bound with a small row sample (see query/aggregator.h).
struct GroupCardinalityEstimate {
  uint64_t table_entities = 0;
  /// Σ_p c_p: total carriers of the attribute == aggregation input rows
  /// and an upper bound on the distinct group count.
  uint64_t carrier_rows = 0;
  /// max_p c_p: the heaviest partition's carrier count. A large value
  /// relative to carrier_rows signals partition-level skew (one partition
  /// dominates the scan).
  uint64_t max_partition_carriers = 0;
  /// Partitions with c_p > 0 (== partitions an aggregation scans after
  /// synopsis pruning).
  uint64_t partitions_carrying = 0;

  /// Upper bound on the distinct group count (no lower bound is available
  /// from synopses alone: all carriers could share one key).
  uint64_t groups_upper_bound() const { return carrier_rows; }
};

class CatalogView;  // mvcc/partition_version.h

/// Bounds the group cardinality of GROUP BY `attribute` from the pinned
/// snapshot's metadata only — no data access.
GroupCardinalityEstimate EstimateGroupCardinality(const CatalogView& view,
                                                  AttributeId attribute);

/// Estimates how many entities match `query` without reading any row
/// (partition versions carry the synopses and carrier counts of their
/// partitions, frozen at publication time).
SelectivityEstimate EstimateSelectivity(const CatalogView& view,
                                        const Query& query);

/// Renders a human-readable access plan for `query`: which partitions
/// would be scanned/pruned with their sizes and estimated yields — the
/// CLI's EXPLAIN. `max_partitions` caps the listing.
std::string ExplainQuery(const CatalogView& view, const Query& query,
                         size_t max_partitions = 20);

}  // namespace cinderella

#endif  // CINDERELLA_QUERY_ESTIMATOR_H_
