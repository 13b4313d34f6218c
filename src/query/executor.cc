#include "query/executor.h"

#include <type_traits>
#include <utility>

#include "mvcc/partition_version.h"
#include "query/scan_source.h"

namespace cinderella {
namespace {

/// Reinstates a pruned touch for every tree-skipped partition so the
/// observer sees the same ascending, complete touch stream as a flat
/// scan. Both inputs are id-ascending; classic two-list merge.
void MergeSkippedTouches(const std::vector<PartitionId>& skipped,
                         std::vector<PartitionTouch>* touches) {
  if (skipped.empty()) return;
  std::vector<PartitionTouch> merged;
  merged.reserve(touches->size() + skipped.size());
  size_t a = 0;
  size_t b = 0;
  while (a < touches->size() || b < skipped.size()) {
    if (b == skipped.size() ||
        (a < touches->size() && (*touches)[a].partition < skipped[b])) {
      merged.push_back((*touches)[a++]);
    } else {
      merged.push_back({skipped[b++], false, 0, 0});
    }
  }
  *touches = std::move(merged);
}

}  // namespace

ThreadPool* QueryExecutor::pool() {
  if (degree_ <= 1) return nullptr;
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(degree_);
  return pool_.get();
}

template <typename T, typename Match>
QueryResult QueryExecutor::Scan(const Synopsis& probe, bool prunable,
                                Match&& match, std::vector<T>* into) {
  into->clear();
  const bool observe = observer_ != nullptr;
  // Tree-pruned plan: sources for exactly the partitions whose subtree
  // union meets the probe. Skipped partitions are bulk-counted as pruned
  // below, keeping every counter bit-identical to the flat scan.
  std::vector<ScanSource> sources;
  std::vector<PartitionId> tree_skipped;
  if (prunable) {
    ForEachTreeCandidate(
        *view_, probe,
        [&](const PartitionVersion& version) {
          sources.push_back(MakeVersionSource(version));
        },
        [&](const PartitionVersion& version) {
          if (observe) tree_skipped.push_back(version.id());
        });
  } else {
    AppendSources(*view_, &sources);
  }

  struct Out {
    ScanMetrics metrics;
    std::vector<T> matches;
    std::vector<PartitionTouch> touches;
  };
  auto scan = [&](const ScanSource& source, Out* out) {
    ++out->metrics.partitions_total;
    // Definition 1 pruning: skip partitions with sgn(|p ∧ q|) = 0.
    if (prunable && !source.synopsis.Intersects(probe)) {
      ++out->metrics.partitions_pruned;
      if (observe) out->touches.push_back({source.partition, false, 0, 0});
      return;
    }
    ++out->metrics.partitions_scanned;
    out->metrics.rows_scanned += source.entities;
    out->metrics.cells_read += source.cells;
    out->metrics.bytes_read += source.bytes;
    const uint64_t matched_before = out->metrics.rows_matched;
    source.ForEachRow([&](const RowView& row) {
      if (match(row, &out->matches)) ++out->metrics.rows_matched;
    });
    if (observe) {
      out->touches.push_back({source.partition, true, source.entities,
                              out->metrics.rows_matched - matched_before});
    }
  };
  QueryResult result;
  std::vector<PartitionTouch> touches;
  ChunkedScan<Out>(pool(), morsel_, /*fixed_chunks=*/false, sources, scan,
                   [&](Out out) {
    MergeMetrics(out.metrics, &result.metrics);
    AppendChunk(std::move(out.matches), into);
    if (observe) AppendChunk(std::move(out.touches), &touches);
  });
  if constexpr (std::is_same_v<T, RowView>) {
    // Matched views into chain-fetched cold rows must outlive the sources
    // (ScanMatches and gather callers consume them after this returns);
    // keep the fetched deques until the next view-returning scan.
    cold_keepalive_.clear();
    for (ScanSource& source : sources) {
      if (source.cold_rows != nullptr) {
        cold_keepalive_.push_back(std::move(source.cold_rows));
      }
    }
  }
  if (observe) {
    MergeSkippedTouches(tree_skipped, &touches);
    observer_->OnScan(probe, touches);
  }
  const uint64_t skipped_count =
      static_cast<uint64_t>(view_->partition_count() - sources.size());
  result.metrics.partitions_total += skipped_count;
  result.metrics.partitions_pruned += skipped_count;
  const size_t table_entities = view_->entity_count();
  result.selectivity =
      table_entities > 0
          ? static_cast<double>(result.metrics.rows_matched) /
                static_cast<double>(table_entities)
          : 0.0;
  return result;
}

QueryResult QueryExecutor::ScanMatchingRows(const Predicate& predicate) {
  Synopsis pruning;
  const bool prunable = predicate.PruningSynopsis(&pruning);
  return Scan(pruning, prunable,
              [&](const RowView& row, std::vector<RowView>* matches) {
                if (!predicate.Matches(row)) return false;
                matches->push_back(row);
                return true;
              },
              &match_buffer_);
}

QueryResult QueryExecutor::ExecutePredicate(const Predicate& predicate) {
  return ScanMatches(predicate, [](const RowView&) {});
}

QueryResult QueryExecutor::ExecuteSelect(const SelectStatement& statement) {
  result_buffer_.clear();
  auto materialize = [&](const RowView& row) {
    if (statement.select_all) {
      for (const Row::Cell& cell : row) {
        result_buffer_.push_back(cell.value);
      }
      return;
    }
    for (AttributeId attribute : statement.projection) {
      const Value* value = row.Get(attribute);
      if (value != nullptr) result_buffer_.push_back(*value);
    }
  };
  QueryResult result;
  if (statement.where != nullptr) {
    result = ScanMatches(*statement.where, materialize);
  } else {
    // No WHERE: every entity matches; scan everything.
    const PredicatePtr match_all = And(std::vector<PredicatePtr>{});
    result = ScanMatches(*match_all, materialize);
  }
  result.cells_materialized = result_buffer_.size();
  return result;
}

QueryResult QueryExecutor::Execute(const Query& query) {
  QueryResult result = Scan(
      query.attributes(), /*prunable=*/true,
      [&](const RowView& row, std::vector<Value>* values) {
        // OR-of-IS-NOT-NULL match; projection materializes the queried
        // attributes that are present.
        bool matched = false;
        for (AttributeId attribute : query.projection()) {
          const Value* value = row.Get(attribute);
          if (value != nullptr) {
            matched = true;
            values->push_back(*value);
          }
        }
        return matched;
      },
      &result_buffer_);
  result.cells_materialized = result_buffer_.size();
  return result;
}

QueryResult QueryExecutor::ExecuteGather(const Query& query,
                                         std::vector<RowView>* rows) {
  return Scan(
      query.attributes(), /*prunable=*/true,
      [&](const RowView& row, std::vector<RowView>* matches) {
        for (AttributeId attribute : query.projection()) {
          if (row.Has(attribute)) {
            matches->push_back(row);
            return true;
          }
        }
        return false;
      },
      rows);
}

}  // namespace cinderella
