#ifndef CINDERELLA_QUERY_AGGREGATOR_H_
#define CINDERELLA_QUERY_AGGREGATOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/catalog.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "storage/value.h"

namespace cinderella {

class CatalogView;  // mvcc/partition_version.h

/// How the parallel GROUP BY engine combines per-row updates into one
/// result table. All strategies produce bit-identical results (see
/// AggregationResult); they differ only in memory traffic and contention,
/// so the right one depends on the group cardinality the query produces —
/// which is unknown until run time. kAdaptive picks per query from a
/// synopsis-derived cardinality estimate refined by a deterministic row
/// sample.
enum class AggregateStrategy {
  kAdaptive,     // Choose per query (the default).
  kTwoPhase,     // Thread-local hash tables, centralized ordered merge.
  kRadix,        // Hash-partition rows, then merge disjoint buckets.
  kSharedTable,  // One open-addressing table with atomic accumulators.
};

/// Short stable name for logs/benches ("adaptive", "two_phase", ...).
const char* AggregateStrategyName(AggregateStrategy strategy);

/// One GROUP BY query: group rows by `group_by`, optionally aggregating
/// the numeric attribute `value` within each group, over the rows matching
/// `where` (all rows when null). Rows lacking `group_by` never
/// participate.
struct AggregateSpec {
  /// Sentinel for `value`: COUNT-only aggregation.
  static constexpr AttributeId kNoValue =
      std::numeric_limits<AttributeId>::max();

  AttributeId group_by = 0;
  AttributeId value = kNoValue;
  const Predicate* where = nullptr;
};

/// One output group. The value aggregates are exact integer arithmetic:
/// int64 cells contribute as-is, double cells truncate via
/// static_cast<int64_t>, string cells are counted (`count`) but excluded
/// from the value aggregates — so every accumulator is commutative and
/// associative, which is what makes all strategies bit-identical at any
/// thread count. sum/min/max are meaningful only when value_count > 0.
struct GroupResult {
  Value key;
  uint64_t count = 0;        // Participating rows in this group.
  uint64_t value_count = 0;  // Rows contributing to sum/min/max.
  int64_t sum = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();

  /// Mean of the contributing values, derived from the exact integer
  /// sum/value_count pair. Because both operands are bit-identical across
  /// strategies and thread counts, so is the quotient. 0.0 when no row
  /// contributed a value (callers should render SQL NULL in that case).
  double avg() const {
    return value_count > 0
               ? static_cast<double>(sum) / static_cast<double>(value_count)
               : 0.0;
  }

  friend bool operator==(const GroupResult& a, const GroupResult& b) {
    return a.key == b.key && a.count == b.count &&
           a.value_count == b.value_count && a.sum == b.sum &&
           a.min == b.min && a.max == b.max;
  }
};

/// Aggregation output. `groups` is sorted ascending by ValueLess on the
/// key — the canonical order every strategy, thread count, and snapshot
/// of the same data reproduces exactly.
struct AggregationResult {
  std::vector<GroupResult> groups;
  ScanMetrics metrics;  // rows_matched counts participating rows.
  /// The strategy that produced `groups` (never kAdaptive: the chooser's
  /// decision is reported; a shared-table overflow rerun reports
  /// kTwoPhase).
  AggregateStrategy strategy_used = AggregateStrategy::kTwoPhase;
  /// The chooser's distinct-group estimate (0 when a fixed strategy was
  /// forced).
  uint64_t estimated_groups = 0;
  /// True if kSharedTable overflowed its fixed-capacity table and the
  /// query was deterministically rerun with kTwoPhase.
  bool shared_table_overflow = false;
};

/// Tuning knobs. The defaults make the chooser's decisions reproducible:
/// everything it looks at (synopsis counts, a row sample in partition
/// order) is deterministic.
struct AggregatorOptions {
  /// Scan parallelism; QueryExecutor conventions (1 = serial, 0 = resolve
  /// from CINDERELLA_SCAN_THREADS / hardware concurrency).
  int scan_threads = 1;
  /// Morsel size in partitions (0 = CINDERELLA_SCAN_CHUNK /
  /// ThreadPool::kDefaultScanChunk).
  size_t morsel = 0;
  /// kAdaptive, or force a fixed strategy (benches, tests).
  AggregateStrategy strategy = AggregateStrategy::kAdaptive;
  /// Legacy uniform pre-split instead of the guided morsel schedule
  /// (scheduling bench baseline).
  bool fixed_chunks = false;
  /// Rows the chooser samples (first participating rows in partition
  /// order; the estimate is exact when the sample covers every row).
  size_t sample_rows = 4096;
  /// Estimated groups at or below this use the shared atomic table
  /// (contention is low when many rows share few hot slots -- unless one
  /// group dominates; see the top-share guard in the chooser).
  size_t shared_max_groups = 4096;
  /// Estimated groups at or above this use radix partitioning: one table
  /// of every group falls out of L2 around this size, while radix keeps
  /// each bucket's table 1/64th of it (and per-thread tables would each
  /// grow to the full group count).
  size_t radix_min_groups = 16384;
  /// Shared-table slot count override (0 = derived from the estimate;
  /// rounded up to a power of two). Overflow falls back to kTwoPhase.
  size_t shared_table_capacity = 0;
};

/// Parallel GROUP BY operator over a pinned MVCC snapshot,
/// morsel-scheduled like QueryExecutor (same ScanSource plumbing, same
/// pruning, same determinism contract: results are bit-identical across
/// strategies, thread counts, and schedules).
///
/// Not thread-safe; use one instance per querying thread. The view must
/// stay pinned for the Aggregate calls' duration.
class Aggregator {
 public:
  explicit Aggregator(const CatalogView& view, AggregatorOptions options = {});

  /// Runs one GROUP BY query; picks the strategy per `options.strategy`.
  AggregationResult Aggregate(const AggregateSpec& spec);

  /// Effective scan parallelism (1 = serial).
  int scan_degree() const { return degree_; }

  /// Attaches a per-partition scan observer (tuner workload tracking);
  /// nullptr detaches. Same contract as QueryExecutor::set_observer: the
  /// observer sees one OnScan per Aggregate call with the effective
  /// pruning synopsis (group attribute ∪ WHERE pruning synopsis) and the
  /// id-ordered partition touches; touch collection is skipped entirely
  /// while no observer is attached.
  void set_observer(ScanObserver* observer) { observer_ = observer; }

 private:
  ThreadPool* pool();

  const CatalogView* view_;
  AggregatorOptions options_;
  int degree_;
  size_t morsel_;
  ScanObserver* observer_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace cinderella

#endif  // CINDERELLA_QUERY_AGGREGATOR_H_
