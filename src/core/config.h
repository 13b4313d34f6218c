#ifndef CINDERELLA_CORE_CONFIG_H_
#define CINDERELLA_CORE_CONFIG_H_

#include <cstdint>

#include "common/status.h"
#include "core/size_measure.h"

namespace cinderella {

/// How a partition's pair of split starters is chosen and maintained.
///
/// kMaxDiffHeuristic is the paper's scheme (Section III): the first two
/// entities seed the pair; every further insert replaces a starter when the
/// new entity forms a more differential pair. The other policies exist for
/// the ablation bench only.
enum class StarterPolicy {
  kMaxDiffHeuristic,  // Paper's incremental max-difference maintenance.
  kFirstTwo,          // Keep the first two entities, never update.
  kRandom,            // Pick two random resident entities at split time.
};

/// Whether the entity synopsis lists attributes or relevant workload
/// queries (Section III: "For a workload-based partitioning, an entity
/// synopsis lists the queries an entity is relevant to, while for an
/// entity-based partitioning, an entity synopsis lists the attributes an
/// entity instantiates.").
enum class SynopsisMode { kEntityBased, kWorkloadBased };

/// Tuning parameters of the Cinderella partitioner.
struct CinderellaConfig {
  /// Rating weight w in [0, 1] balancing positive vs negative evidence
  /// (Section IV). Higher: fewer, more heterogeneous partitions. The paper
  /// suggests 0.2-0.5.
  double weight = 0.5;

  /// MAXSIZE: partition capacity in units of `measure`. The paper's B.
  uint64_t max_size = 5000;

  /// Unit of SIZE() for both the rating and the capacity check.
  SizeMeasure measure = SizeMeasure::kEntityCount;

  /// Entity-based (default) or workload-based synopses.
  SynopsisMode mode = SynopsisMode::kEntityBased;

  /// Applies the global-rating normalization of Section IV
  /// (r = r' / ((SIZE(p)+SIZE(e))·|e∨p|)). Disable only for the ablation
  /// bench; unnormalized local ratings are not comparable across
  /// partitions.
  bool normalize_rating = true;

  /// Split-starter maintenance policy (ablation knob; the paper's scheme
  /// is the default).
  StarterPolicy starter_policy = StarterPolicy::kMaxDiffHeuristic;

  /// Maintains an inverted attribute->partitions index so the insert only
  /// rates partitions overlapping the entity (exact: non-overlapping
  /// partitions never rate positive). Addresses the paper's future-work
  /// item "improve the management of a large number of partition synopses
  /// with specialized data structures".
  bool use_synopsis_index = false;

  /// Maintains the query-side synopsis tree: a VersionedTable publishes a
  /// fixed-fanout tree over its partitions' attribute synopses (internal
  /// nodes hold the word-wise OR of their leaves) with every snapshot, so
  /// query-time pruning descends only subtrees whose union can still
  /// match. Query results are bit-identical to the flat scan. Placement
  /// never reads it: every insert, update, split and re-rating picks its
  /// partition with the flat rating scan (or the inverted index under
  /// use_synopsis_index).
  bool use_synopsis_tree = true;

  /// Fanout of the query-side synopsis tree's internal nodes. 0 = resolve
  /// from the CINDERELLA_TREE_FANOUT environment variable (default 16,
  /// clamped to [2, 256]).
  int tree_fanout = 0;

  /// Seed for StarterPolicy::kRandom.
  uint64_t starter_seed = 42;

  /// Degree of parallelism for the unrestricted rating scan of
  /// FindBestPartition (Algorithm 1 lines 3-7): the live partitions are
  /// chunked across a fixed thread pool with a deterministic lowest-id
  /// tie-break, so placements are bit-identical to the serial scan at any
  /// degree. 1 = serial (no threads spawned); 0 = resolve from the
  /// CINDERELLA_SCAN_THREADS environment variable, falling back to the
  /// hardware concurrency. Negative values are invalid. Serial by
  /// default: a pool dispatch per insert costs more than it saves at the
  /// paper's catalog sizes (on a 4-core host the 4-thread scan was slower
  /// than the serial one from 352 up to 8301 partitions).
  int scan_threads = 1;

  /// Number of catalog shards (and scan threads) used by the batched
  /// insert engine (src/ingest): the live partitions are mirrored into
  /// `insert_shards` packed synopsis arrays keyed by partition id, each
  /// with its own lock, and batch rating scans them shard-parallel.
  /// Placements stay bit-identical to serial single-row inserts at any
  /// shard count. 0 = resolve from the CINDERELLA_INSERT_SHARDS
  /// environment variable, falling back to the hardware concurrency
  /// (mirrors the scan_threads convention). Negative values are invalid.
  int insert_shards = 0;

  /// Morsel size, in partitions, for every chunked parallel scan (query
  /// executor and the GROUP BY aggregator): workers claim `scan_chunk`
  /// partitions (and larger chunks up front, guided schedule) from an
  /// atomic ticket counter. Chunk boundaries depend only on the partition
  /// count and degree — never on timing — so results stay bit-identical
  /// to serial. 0 = resolve from the CINDERELLA_SCAN_CHUNK environment
  /// variable, falling back to ThreadPool::kDefaultScanChunk. Negative
  /// values are invalid.
  int scan_chunk = 0;

  /// Extension (not in the paper): dissolve a partition whose size drops
  /// below this fraction of max_size after a delete, re-inserting its
  /// remaining entities through the normal insert routine. The paper only
  /// drops *empty* partitions; under delete-heavy churn that leaves many
  /// under-filled partitions whose per-partition union overhead hurts
  /// unselective queries. 0 disables (paper behaviour, the default).
  double dissolve_threshold = 0.0;

  /// Returns InvalidArgument for out-of-range parameters.
  Status Validate() const;
};

}  // namespace cinderella

#endif  // CINDERELLA_CORE_CONFIG_H_
