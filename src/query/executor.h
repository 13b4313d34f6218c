#ifndef CINDERELLA_QUERY_EXECUTOR_H_
#define CINDERELLA_QUERY_EXECUTOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/catalog.h"
#include "query/parser.h"
#include "query/predicate.h"
#include "query/query.h"
#include "storage/row.h"
#include "storage/value.h"

namespace cinderella {

class CatalogView;  // mvcc/partition_version.h

/// Per-query execution counters. The deterministic counters make the
/// figure benches' shape assertions reproducible; wall time is measured by
/// the bench drivers around Execute(). All counters are deterministic at
/// any scan degree: parallel chunks accumulate locally and are merged in
/// partition-id order.
struct ScanMetrics {
  uint64_t partitions_total = 0;
  uint64_t partitions_scanned = 0;  // Synopsis intersected the query.
  uint64_t partitions_pruned = 0;
  uint64_t rows_scanned = 0;  // Rows of scanned partitions.
  uint64_t rows_matched = 0;  // Rows satisfying the OR-of-IS-NOT-NULL.
  uint64_t cells_read = 0;    // Attribute cells of scanned rows.
  uint64_t bytes_read = 0;    // Byte footprint of scanned rows.
};

/// What one query did to one partition: pruned by the synopsis
/// (scanned == false, the partition was considered but never read) or
/// scanned, with the rows read and the rows that actually matched. A
/// scanned partition with rows_matched == 0 is a synopsis false positive.
/// Touches are reported in ascending partition-id order — the same
/// deterministic merge order as every other scan counter.
struct PartitionTouch {
  PartitionId partition = 0;
  bool scanned = false;
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
};

/// Observer of per-partition scan outcomes, fed by QueryExecutor and
/// Aggregator after each query. `query` is the pruning synopsis the scan
/// used (empty when the predicate had no conservative synopsis); both
/// arguments borrow from the call frame and die with it. Implementations
/// must be thread-safe if the same observer is attached to executors on
/// several querying threads (the tuner's WorkloadTracker is); OnScan runs
/// once per query on the calling thread, never per row, so a mutex there
/// is cheap.
class ScanObserver {
 public:
  virtual ~ScanObserver() = default;
  virtual void OnScan(const Synopsis& query,
                      const std::vector<PartitionTouch>& touches) = 0;
};

/// Cost model for a scan, mirroring the paper's prototype where the query
/// is rewritten to a UNION ALL over the matching partitions and "the
/// database system has to project all tuples of every involved partition
/// to the common schema" (Section V.B). The modeled cost charges the bytes
/// actually scanned plus a per-scanned-partition subplan overhead.
struct CostModel {
  /// Fixed cost per scanned partition (subplan startup, catalog lookup,
  /// projection setup), in byte-equivalents.
  double per_partition_overhead_bytes = 4096.0;
  /// Per-matched-row projection cost to the common schema, in
  /// byte-equivalents per attribute of the result schema.
  double per_row_projection_bytes = 4.0;
};

/// Result of executing one query.
struct QueryResult {
  ScanMetrics metrics;
  /// rows_matched / table entity count; the paper's selectivity axis.
  double selectivity = 0.0;
  /// Number of projected non-null cells materialized.
  uint64_t cells_materialized = 0;

  /// Modeled execution cost in byte-equivalents (see CostModel).
  double ModeledCost(const CostModel& model) const {
    return static_cast<double>(metrics.bytes_read) +
           model.per_partition_overhead_bytes *
               static_cast<double>(metrics.partitions_scanned) +
           model.per_row_projection_bytes *
               static_cast<double>(metrics.rows_matched);
  }
};

/// Executes attribute-set queries against a pinned MVCC snapshot
/// (mvcc/partition_version.h) with synopsis-based pruning (the paper's
/// rewrite to a UNION ALL over all partitions containing the requested
/// attributes). The view must stay pinned for the executor calls'
/// duration: a VersionedTable snapshot, or a CatalogCapture of a catalog
/// no VersionedTable publishes.
///
/// Threading: with `scan_threads` != 1 the partition scan is spread
/// across a fixed thread pool with morsel-driven scheduling — workers
/// claim chunks of `scan_chunk` partitions (and larger, up front) from an
/// atomic ticket counter, so one oversized partition no longer gates the
/// batch. Per-chunk metrics, matched rows and materialized cells are
/// merged in deterministic chunk order, so every result — counters,
/// selectivity, and the materialization buffer — is bit-identical to the
/// serial scan. The default is 1 (serial, the exact pre-threading
/// behavior); 0 resolves from CINDERELLA_SCAN_THREADS / hardware
/// concurrency. `scan_chunk` is the morsel granularity in partitions;
/// 0 resolves from CINDERELLA_SCAN_CHUNK, default
/// ThreadPool::kDefaultScanChunk. The executor itself is not
/// thread-safe; use one instance per querying thread.
class QueryExecutor {
 public:
  explicit QueryExecutor(const CatalogView& view, int scan_threads = 1,
                         size_t scan_chunk = 0)
      : view_(&view),
        degree_(ThreadPool::ResolveDegree(scan_threads)),
        morsel_(ThreadPool::ResolveScanChunk(scan_chunk)) {}

  /// Scans all non-prunable partitions, materializing the projection of
  /// matching rows into an internal buffer (real work, so wall-clock
  /// measurements around this call are meaningful).
  QueryResult Execute(const Query& query);

  /// Predicate scan: prunes partitions via the predicate's conservative
  /// pruning synopsis (when one exists), then evaluates the predicate on
  /// every resident row of the remaining partitions.
  QueryResult ExecutePredicate(const Predicate& predicate);

  /// Executes a parsed SELECT statement (see query/parser.h): predicate
  /// scan with the statement's WHERE clause (or match-all) and
  /// materialization of the projected attributes.
  QueryResult ExecuteSelect(const SelectStatement& statement);

  /// Gather form of Execute: same pruning, same deterministic scan order,
  /// but nothing is materialized (`cells_materialized` stays 0): `*rows`
  /// (cleared first) receives a view of every matched row, whole, in
  /// partition-id-then-row order. A networked node (net/) encodes the
  /// query's projection straight from these views. They borrow from the
  /// pinned snapshot, or from cold rows this executor keeps until its next
  /// scan, so they stay valid while both the snapshot pin and the executor
  /// live and no other scan runs on it; RowView::ToRow() copies one out.
  QueryResult ExecuteGather(const Query& query, std::vector<RowView>* rows);

  /// Like ExecutePredicate, invoking `fn(const RowView&)` for every match
  /// in partition-id-then-row order. Predicate evaluation may run on the
  /// scan pool; `fn` always runs on the calling thread, after the scan.
  /// The views borrow from the pinned snapshot (or from rows fetched off
  /// its cold chains); copy via RowView::ToRow() to keep a row past the
  /// scan.
  template <typename Fn>
  QueryResult ScanMatches(const Predicate& predicate, Fn&& fn) {
    QueryResult result = ScanMatchingRows(predicate);
    for (const RowView& row : match_buffer_) fn(row);
    return result;
  }

  /// Effective scan parallelism (1 = serial).
  int scan_degree() const { return degree_; }

  /// Attaches a per-partition scan observer (tuner workload tracking);
  /// nullptr detaches. Touch collection is skipped entirely while no
  /// observer is attached, so the hook costs nothing on the default path.
  void set_observer(ScanObserver* observer) { observer_ = observer; }

 private:
  /// Prunes + scans, filling match_buffer_ with the matching rows in
  /// partition-id-then-row order and returning the filled-in metrics.
  QueryResult ScanMatchingRows(const Predicate& predicate);

  /// The one scan routine behind every entry point (defined and
  /// instantiated in executor.cc): plans the scan (synopsis-tree candidates
  /// or every partition), runs `match(row, &chunk_buffer)` over each row of
  /// every partition whose synopsis meets `probe` (every partition when
  /// !prunable), appends the chunk buffers to `*into` (cleared first) in
  /// partition-id order, reports the touches to the observer, and fills
  /// in the counters and selectivity. `match` returns whether the row
  /// matched.
  template <typename T, typename Match>
  QueryResult Scan(const Synopsis& probe, bool prunable, Match&& match,
                   std::vector<T>* into);

  /// Lazily created pool; nullptr while degree_ == 1.
  ThreadPool* pool();

  const CatalogView* view_;
  int degree_;
  size_t morsel_;  // Morsel granularity, in partitions.
  ScanObserver* observer_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;
  // Reused scratch buffers (cleared per query).
  std::vector<RowView> match_buffer_;
  std::vector<Value> result_buffer_;
  // Rows fetched from cold page chains during the last view-returning
  // scan (predicate or gather); its views borrow from them, so they live
  // until the next such scan.
  std::vector<std::shared_ptr<std::deque<Row>>> cold_keepalive_;
};

}  // namespace cinderella

#endif  // CINDERELLA_QUERY_EXECUTOR_H_
