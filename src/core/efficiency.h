#ifndef CINDERELLA_CORE_EFFICIENCY_H_
#define CINDERELLA_CORE_EFFICIENCY_H_

#include <vector>

#include "core/catalog.h"
#include "core/size_measure.h"
#include "synopsis/synopsis.h"

namespace cinderella {

class CatalogView;  // mvcc/partition_version.h

/// Numerator/denominator of Definition 1, exposed for inspection.
struct EfficiencyBreakdown {
  /// Σ_{q∈W, e∈T} sgn(|e∧q|)·SIZE(e): data relevant to the workload.
  double relevant = 0.0;
  /// Σ_{q∈W, p∈P} sgn(|p∧q|)·SIZE(p): data read after synopsis pruning.
  double read = 0.0;
  /// relevant / read; 1.0 when nothing is read (empty workload/table).
  double efficiency = 1.0;
};

/// Computes EFFICIENCY(P) (Definition 1) of the partitioning in `catalog`
/// for the query set `workload` (attribute synopses) under `measure`.
///
/// A partition is read by query q iff its attribute synopsis intersects q;
/// an entity is relevant to q iff its attribute set intersects q. The
/// result is in [0, 1]: the fraction of the data read that is actually
/// relevant. Cold partitions count like hot ones: their rows are read
/// back through the page chain (once per call, not once per query).
EfficiencyBreakdown ComputeEfficiency(const PartitionCatalog& catalog,
                                      const std::vector<Synopsis>& workload,
                                      SizeMeasure measure);

/// Weighted variant: query i contributes with multiplicity `weights[i]`
/// (its decayed observation count in the tuner's tracked workload).
/// `weights` must be the same length as `workload`; all-1.0 weights
/// reproduce the unweighted overload exactly.
EfficiencyBreakdown ComputeEfficiency(const PartitionCatalog& catalog,
                                      const std::vector<Synopsis>& workload,
                                      const std::vector<double>& weights,
                                      SizeMeasure measure);

/// EFFICIENCY of a pinned MVCC snapshot (mvcc/partition_version.h): same
/// Definition 1 arithmetic over packed partition versions. This is
/// the accessor the background reorganizer plans with — it never touches
/// the live catalog, so scoring holds no catalog locks. The view must
/// stay pinned for the call's duration. Unlike the catalog overload it
/// covers the hot versions only: the tuner scores on every tick and must
/// not pay chain I/O, so cold versions are left out of both sums.
EfficiencyBreakdown ComputeEfficiency(const CatalogView& view,
                                      const std::vector<Synopsis>& workload,
                                      SizeMeasure measure);
EfficiencyBreakdown ComputeEfficiency(const CatalogView& view,
                                      const std::vector<Synopsis>& workload,
                                      const std::vector<double>& weights,
                                      SizeMeasure measure);

}  // namespace cinderella

#endif  // CINDERELLA_CORE_EFFICIENCY_H_
