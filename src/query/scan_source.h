#ifndef CINDERELLA_QUERY_SCAN_SOURCE_H_
#define CINDERELLA_QUERY_SCAN_SOURCE_H_

#include <deque>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "mvcc/partition_version.h"
#include "query/executor.h"
#include "storage/cold_tier.h"
#include "storage/row.h"
#include "synopsis/synopsis.h"

namespace cinderella {

/// Internal plumbing shared by the scan operators (query/executor.cc,
/// query/aggregator.cc and query/estimator.cc). Not part of the public
/// query API: the types here borrow from a pinned MVCC view and die with
/// it.

/// Uniform scan input: what one partition version contributes to a scan,
/// whether its rows are packed in the version's buffer (row headers plus
/// one cell array) or live in a cold page chain. Either way the scan body sees
/// RowViews, so predicate evaluation, projection, and aggregation are
/// layout-agnostic.
struct ScanSource {
  PartitionId partition = 0;  // Catalog partition id (tuner attribution).
  SynopsisSpan synopsis;      // Pruning synopsis.
  // Exactly one layout is set per source: packed MVCC rows or a cold page
  // chain.
  const PartitionVersion::PackedRow* packed_rows = nullptr;
  const Row::Cell* packed_cells = nullptr;
  // Cold source: rows live in a page chain and are only fetched when the
  // scan actually reads them — a pruned cold partition costs zero I/O.
  // Fetched rows park in *cold_rows (deque: stable addresses), so the
  // RowViews the scan yields stay valid for as long as the deque is kept
  // alive; consumers that hold views past the scan retain the shared_ptr
  // (see QueryExecutor::cold_keepalive_).
  const ColdChain* cold_chain = nullptr;
  const ColdTier* cold_tier = nullptr;
  std::shared_ptr<std::deque<Row>> cold_rows;
  size_t entities = 0;
  uint64_t cells = 0;
  uint64_t bytes = 0;

  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    if (cold_chain != nullptr) {
      if (cold_rows->empty()) {
        // A chain read can only fail on store corruption; scans have no
        // status channel, so treat that as fatal rather than silently
        // returning a truncated result.
        const Status read = cold_tier->ReadChain(
            *cold_chain,
            [&](Row&& row) { cold_rows->push_back(std::move(row)); });
        CINDERELLA_CHECK(read.ok());
      }
      for (const Row& row : *cold_rows) fn(RowView(row));
      return;
    }
    for (size_t i = 0; i < entities; ++i) {
      const PartitionVersion::PackedRow& row = packed_rows[i];
      fn(RowView(row.id, packed_cells + row.cell_begin, row.cell_count));
    }
  }
};

/// Builds the scan source for one MVCC version. A cold version's source
/// carries its page chain instead of packed rows.
inline ScanSource MakeVersionSource(const PartitionVersion& version) {
  ScanSource source;
  source.partition = version.id();
  source.synopsis = version.attribute_synopsis();
  source.entities = version.entity_count();
  source.cells = version.cell_count();
  source.bytes = version.byte_size();
  if (version.cold()) {
    source.cold_chain = version.cold_chain();
    source.cold_tier = version.cold_tier();
    source.cold_rows = std::make_shared<std::deque<Row>>();
  } else {
    source.packed_rows = version.packed_rows();
    source.packed_cells = version.cell_data();
  }
  return source;
}

inline void AppendSources(const CatalogView& view,
                          std::vector<ScanSource>* sources) {
  sources->reserve(view.partition_count());
  view.ForEachPartition([&](const PartitionVersion& version) {
    sources->push_back(MakeVersionSource(version));
  });
}

/// Walks the view's partitions in ascending id order, calling
/// `candidate(version)` for each partition the synopsis tree keeps as a
/// candidate for `probe` and `skipped(version)` for every other one. A
/// view without a tree makes every partition a candidate. Union soundness
/// makes the skip exact: a partition under a non-intersecting subtree
/// cannot itself intersect the probe, so a flat scan would have pruned it
/// one by one.
template <typename Candidate, typename Skipped>
void ForEachTreeCandidate(const CatalogView& view, const Synopsis& probe,
                          Candidate&& candidate, Skipped&& skipped) {
  const std::vector<const PartitionVersion*>& parts = view.partitions();
  if (!view.tree().valid()) {
    for (const PartitionVersion* version : parts) candidate(*version);
    return;
  }
  const std::vector<uint64_t>& words = probe.words();
  size_t i = 0;
  auto skip_until = [&](uint64_t key) {
    while (i < parts.size() && parts[i]->id() < key) skipped(*parts[i++]);
  };
  view.tree().ForEachCandidate(
      words.data(), words.size(), [&](uint64_t key) {
        // Candidate keys ascend, so one forward pass aligns the
        // (ascending) version array.
        skip_until(key);
        if (i < parts.size() && parts[i]->id() == key) candidate(*parts[i++]);
      });
  skip_until(UINT64_MAX);
}

/// Appends one chunk's output (partition touches, matched rows, projected
/// values) to the query-wide buffer. Chunks merge in ascending
/// partition-id order (ChunkedScan's contract), so the concatenation is
/// globally id-ordered — exactly what ScanObserver promises for touches.
template <typename T>
void AppendChunk(std::vector<T>&& from, std::vector<T>* into) {
  if (into->empty()) {
    *into = std::move(from);
    return;
  }
  into->insert(into->end(), std::make_move_iterator(from.begin()),
               std::make_move_iterator(from.end()));
}

inline void MergeMetrics(const ScanMetrics& from, ScanMetrics* into) {
  into->partitions_total += from.partitions_total;
  into->partitions_scanned += from.partitions_scanned;
  into->partitions_pruned += from.partitions_pruned;
  into->rows_scanned += from.rows_scanned;
  into->rows_matched += from.rows_matched;
  into->cells_read += from.cells_read;
  into->bytes_read += from.bytes_read;
}

/// Runs `scan(source, &out)` over every partition source and feeds the
/// per-chunk outputs to `merge` in ascending partition-id order — the
/// merge sequence (and therefore every counter and buffer built from it)
/// is identical to a serial left-to-right scan at any pool degree. The
/// serial path produces one output for the whole range, so `merge` sees a
/// single already-ordered aggregate and buffers move instead of copy.
///
/// `morsel` is the scheduling granularity in partitions (see
/// ThreadPool::ResolveScanChunk). By default chunks follow the
/// morsel-driven guided schedule (ParallelForDynamic), so one oversized
/// partition no longer gates the batch; `fixed_chunks` selects the legacy
/// uniform pre-split (kept for the scheduling bench's baseline).
template <typename Out, typename Scan, typename Merge>
void ChunkedScan(ThreadPool* pool, size_t morsel, bool fixed_chunks,
                 const std::vector<ScanSource>& sources, Scan&& scan,
                 Merge&& merge) {
  const size_t num_chunks =
      pool == nullptr
          ? 1
          : (fixed_chunks
                 ? ThreadPool::NumChunks(sources.size(), morsel)
                 : ThreadPool::NumDynamicChunks(sources.size(), morsel,
                                                pool->degree()));
  if (pool == nullptr || num_chunks <= 1) {
    Out out;
    for (const ScanSource& source : sources) scan(source, &out);
    merge(std::move(out));
    return;
  }
  std::vector<Out> outs(num_chunks);
  const auto body = [&](size_t begin, size_t end, size_t chunk_index) {
    Out& out = outs[chunk_index];
    for (size_t i = begin; i < end; ++i) {
      scan(sources[i], &out);
    }
  };
  if (fixed_chunks) {
    pool->ParallelFor(sources.size(), morsel, body);
  } else {
    pool->ParallelForDynamic(sources.size(), morsel, body);
  }
  for (Out& out : outs) merge(std::move(out));
}

}  // namespace cinderella

#endif  // CINDERELLA_QUERY_SCAN_SOURCE_H_
