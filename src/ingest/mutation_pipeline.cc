#include "ingest/mutation_pipeline.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "core/rating.h"
#include "core/size_measure.h"

namespace cinderella {

namespace {

size_t ResolveShardCount(const Cinderella& cinderella,
                         const MutationPipelineOptions& options) {
  const int configured =
      options.shards > 0 ? options.shards : cinderella.config().insert_shards;
  return static_cast<size_t>(
      ThreadPool::ResolveDegree(configured, "CINDERELLA_INSERT_SHARDS"));
}

}  // namespace

/// Per-window scratch: the deduplicated entity groups of the placement
/// ops, their packed bitset words, and the op -> group mapping (kNoGroup
/// for deletes, which need no rating).
struct MutationPipeline::Window {
  std::vector<size_t> group_of;      // Window-relative op -> group index.
  std::vector<EntityGroup> groups;
  std::vector<uint64_t> entity_arena;  // groups.size() * stride words.
  size_t stride = 1;
};

MutationPipeline::MutationPipeline(Cinderella* cinderella,
                                   MutationPipelineOptions options)
    : cinderella_(cinderella),
      options_(options),
      weight_(cinderella->config().weight),
      normalize_(cinderella->config().normalize_rating),
      measure_(cinderella->config().measure),
      catalog_(ResolveShardCount(*cinderella, options)) {
  if (catalog_.shard_count() > 1) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<int>(catalog_.shard_count()));
  }
  std::lock_guard<std::mutex> lock(commit_mu_);
  RebuildLocked();
  stats_.rebuilds = 0;  // The initial fill is not an external-mutation event.
}

MutationPipeline::~MutationPipeline() {
  if (cinderella_->batch_engine() == this) {
    cinderella_->set_batch_engine(nullptr);
  }
}

MutationPipeline::Stats MutationPipeline::stats() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return stats_;
}

void MutationPipeline::set_commit_hook(CommitHook hook) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  commit_hook_ = std::move(hook);
}

void MutationPipeline::set_spill_hook(SpillHook hook) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  spill_hook_ = std::move(hook);
}

void MutationPipeline::Consider(Candidate* c, double rating, PartitionId id) {
  if (!c->valid || rating > c->rating ||
      (rating == c->rating && id < c->id)) {
    *c = Candidate{rating, id, true};
  }
}

void MutationPipeline::Offer(Top2* top, double rating, PartitionId id) {
  if (!top->best.valid || rating > top->best.rating ||
      (rating == top->best.rating && id < top->best.id)) {
    top->second = top->best;
    top->best = Candidate{rating, id, true};
  } else if (!top->second.valid || rating > top->second.rating ||
             (rating == top->second.rating && id < top->second.id)) {
    top->second = Candidate{rating, id, true};
  }
}

double MutationPipeline::RateEntry(const ShardedCatalog::EntryView& entry,
                                   const uint64_t* entity_words,
                                   size_t entity_stride,
                                   const EntityGroup& group) const {
  // Words past either stride are zero (absent ids) and contribute nothing
  // to the intersection; the exclusive counts come from the cached
  // cardinalities exactly as Synopsis::RateCounts derives them.
  const size_t common = std::min(entity_stride, entry.num_words);
  size_t intersect = 0;
  for (size_t w = 0; w < common; ++w) {
    intersect += static_cast<size_t>(
        std::popcount(entity_words[w] & entry.words[w]));
  }
  return RateFromCounts(
      static_cast<double>(intersect),
      static_cast<double>(entry.count - intersect),   // |¬e∧p|
      static_cast<double>(group.count - intersect),   // |e∧¬p|
      group.size, static_cast<double>(entry.size), weight_, normalize_);
}

double MutationPipeline::RateLive(const Partition& partition,
                                  const Synopsis& synopsis,
                                  double entity_size) const {
  return Rate(synopsis, entity_size, partition.rating_synopsis(),
              static_cast<double>(partition.Size(measure_)), weight_,
              normalize_);
}

// ---------------------------------------------------------------------------
// Batch entry points.
// ---------------------------------------------------------------------------

Status MutationPipeline::InsertBatch(std::vector<Row> rows) {
  std::vector<Mutation> ops;
  ops.reserve(rows.size());
  for (Row& row : rows) ops.push_back(Mutation::Insert(std::move(row)));
  return ApplyMutations(std::move(ops), nullptr);
}

Status MutationPipeline::UpdateBatch(std::vector<Row> rows) {
  std::vector<Mutation> ops;
  ops.reserve(rows.size());
  for (Row& row : rows) ops.push_back(Mutation::Update(std::move(row)));
  return ApplyMutations(std::move(ops), nullptr);
}

Status MutationPipeline::DeleteBatch(const std::vector<EntityId>& entities) {
  std::vector<Mutation> ops;
  ops.reserve(entities.size());
  for (EntityId entity : entities) ops.push_back(Mutation::Delete(entity));
  return ApplyMutations(std::move(ops), nullptr);
}

Status MutationPipeline::ApplyMutations(std::vector<Mutation> ops,
                                        size_t* applied) {
  if (applied != nullptr) *applied = 0;
  if (ops.empty()) return Status::OK();

  // Validate before touching anything, under the commit lock (concurrent
  // commits mutate the binding map the liveness simulation reads).
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    CINDERELLA_RETURN_IF_ERROR(cinderella_->ValidateMutations(ops));
  }

  // One synopsis extraction per placement op, outside every lock (the
  // extractor only reads the row and the immutable workload).
  std::vector<Synopsis> synopses(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != Mutation::Kind::kDelete) {
      synopses[i] = cinderella_->ExtractSynopsis(ops[i].row);
    }
  }

  const size_t window = std::max<size_t>(1, options_.window);
  for (size_t begin = 0; begin < ops.size(); begin += window) {
    const size_t end = std::min(ops.size(), begin + window);
    CINDERELLA_RETURN_IF_ERROR(
        ProcessWindow(&ops, &synopses, begin, end, applied));
  }

  std::lock_guard<std::mutex> lock(commit_mu_);
  ++stats_.batches;
  stats_.rows += ops.size();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Window machinery.
// ---------------------------------------------------------------------------

void MutationPipeline::BuildWindow(const std::vector<Mutation>& ops,
                                   const std::vector<Synopsis>& synopses,
                                   size_t begin, size_t end,
                                   Window* win) const {
  const size_t n = end - begin;
  win->group_of.assign(n, kNoGroup);
  std::unordered_map<std::string, size_t> dedupe;
  dedupe.reserve(n);
  std::vector<const std::vector<uint64_t>*> group_words;
  for (size_t i = 0; i < n; ++i) {
    const Mutation& op = ops[begin + i];
    if (op.kind == Mutation::Kind::kDelete) continue;
    const Synopsis& synopsis = synopses[begin + i];
    const std::vector<uint64_t>& words = synopsis.words();
    const uint64_t size = RowSize(op.row, measure_);
    std::string key(reinterpret_cast<const char*>(words.data()),
                    words.size() * sizeof(uint64_t));
    key.append(reinterpret_cast<const char*>(&size), sizeof(size));
    const auto [it, inserted] = dedupe.emplace(std::move(key),
                                               win->groups.size());
    if (inserted) {
      EntityGroup group;
      group.count = static_cast<uint32_t>(synopsis.Count());
      group.size = static_cast<double>(size);
      win->groups.push_back(group);
      group_words.push_back(&words);
      win->stride = std::max(win->stride, words.size());
    }
    win->group_of[i] = it->second;
  }
  const size_t num_groups = win->groups.size();
  win->entity_arena.assign(num_groups * win->stride, 0);
  for (size_t g = 0; g < num_groups; ++g) {
    win->groups[g].words_offset = g * win->stride;
    std::copy(group_words[g]->begin(), group_words[g]->end(),
              win->entity_arena.begin() +
                  static_cast<ptrdiff_t>(win->groups[g].words_offset));
  }
}

void MutationPipeline::ScanWindow(const Window& win, std::vector<Top2>* merged,
                                  uint64_t* rated) const {
  const size_t num_groups = win.groups.size();
  merged->assign(num_groups, Top2{});
  if (num_groups == 0) return;
  const size_t num_shards = catalog_.shard_count();

  // Per-(shard, group) top-2, no commit lock required.
  std::vector<Top2> slab(num_shards * num_groups);
  std::vector<uint64_t> shard_ratings(num_shards, 0);
  auto scan_shard = [&](size_t s) {
    Top2* tops = slab.data() + s * num_groups;
    uint64_t local_rated = 0;
    catalog_.ScanShard(s, [&](const ShardedCatalog::EntryView& entry) {
      for (size_t g = 0; g < num_groups; ++g) {
        const EntityGroup& group = win.groups[g];
        const uint64_t* entity_words =
            win.entity_arena.data() + group.words_offset;
        const size_t common = std::min(win.stride, entry.num_words);
        size_t intersect = 0;
        for (size_t w = 0; w < common; ++w) {
          intersect += static_cast<size_t>(
              std::popcount(entity_words[w] & entry.words[w]));
        }
        ++local_rated;
        const RatingTerms terms = RatingTermsFromCounts(
            static_cast<double>(intersect),
            static_cast<double>(entry.count - intersect),
            static_cast<double>(group.count - intersect), group.size,
            static_cast<double>(entry.size), weight_);
        Top2& top = tops[g];
        double r;
        if (normalize_) {
          // Skip the divide for a provably-losing candidate: local < 0
          // requires a positive heterogeneity term, which needs both a
          // positive size and a missing id — so the normalizer is
          // positive too and r = local/normalizer < 0 strictly. A
          // negative candidate cannot displace a non-negative best; it
          // may understate the second slot, which the commit phase
          // tolerates (DESIGN.md §8: an understated second is only
          // consulted when every surviving candidate is negative, where
          // serial also creates a new partition).
          if (terms.local < 0.0 && top.best.valid &&
              top.best.rating >= 0.0) {
            continue;
          }
          r = terms.normalizer > 0.0 ? terms.local / terms.normalizer : 0.0;
        } else {
          r = terms.local;
        }
        Offer(&top, r, entry.id);
      }
    });
    shard_ratings[s] = local_rated;
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(num_shards, 1,
                       [&](size_t chunk_begin, size_t chunk_end, size_t) {
                         for (size_t s = chunk_begin; s < chunk_end; ++s) {
                           scan_shard(s);
                         }
                       });
  } else {
    for (size_t s = 0; s < num_shards; ++s) scan_shard(s);
  }

  // Merge the shard slabs per group (order-independent comparator).
  for (size_t s = 0; s < num_shards; ++s) {
    for (size_t g = 0; g < num_groups; ++g) {
      const Top2& top = slab[s * num_groups + g];
      if (top.best.valid) Offer(&(*merged)[g], top.best.rating, top.best.id);
      if (top.second.valid) {
        Offer(&(*merged)[g], top.second.rating, top.second.id);
      }
    }
  }
  for (const uint64_t r : shard_ratings) *rated += r;
}

MutationPipeline::Candidate MutationPipeline::ResolvePlacementLocked(
    const Window& win, size_t group_index, const std::vector<Top2>& merged,
    bool stale, const std::unordered_set<PartitionId>& dirty) {
  const EntityGroup& group = win.groups[group_index];
  const uint64_t* entity_words = win.entity_arena.data() + group.words_offset;
  const Top2& top = merged[group_index];

  Candidate chosen;
  const bool best_dirty = top.best.valid && dirty.count(top.best.id) > 0;
  const bool second_dirty =
      top.second.valid && dirty.count(top.second.id) > 0;
  if (stale || (best_dirty && second_dirty)) {
    // The top-2 no longer bounds the clean partitions: re-scan this
    // entity exactly under the lock (rare; the dirty set is small).
    ++stats_.rescans;
    for (size_t s = 0; s < catalog_.shard_count(); ++s) {
      catalog_.ScanShard(s, [&](const ShardedCatalog::EntryView& entry) {
        ++stats_.reratings;
        Consider(&chosen, RateEntry(entry, entity_words, win.stride, group),
                 entry.id);
      });
    }
  } else {
    if (top.best.valid && !best_dirty) {
      Consider(&chosen, top.best.rating, top.best.id);
    }
    if (top.second.valid && !second_dirty) {
      Consider(&chosen, top.second.rating, top.second.id);
    }
    for (const PartitionId id : dirty) {
      // Dropped partitions have no entry and stop being candidates.
      catalog_.WithEntry(id, [&](const ShardedCatalog::EntryView& entry) {
        ++stats_.reratings;
        Consider(&chosen, RateEntry(entry, entity_words, win.stride, group),
                 entry.id);
      });
    }
  }
  return chosen;
}

Status MutationPipeline::ProcessWindow(std::vector<Mutation>* ops,
                                       const std::vector<Synopsis>* synopses,
                                       size_t begin, size_t end,
                                       size_t* applied) {
  Window win;
  BuildWindow(*ops, *synopses, begin, end, &win);

  // Snapshot the dirty state before scanning: at commit time the log
  // suffix past the snapshot is exactly the set of partitions other
  // commits invalidated underneath this scan.
  const uint64_t dirty_snap = dirty_state_.load(std::memory_order_acquire);
  std::vector<Top2> merged;
  uint64_t rated = 0;
  ScanWindow(win, &merged, &rated);

  // -- Commit phase: serialized, placements resolved exactly. ------------
  std::lock_guard<std::mutex> lock(commit_mu_);
  ++stats_.windows;
  stats_.ratings += rated;

  // External serial mutations invalidate the mirror (and, via the epoch
  // bump, this window's scan).
  SyncMirrorLocked();
  const uint64_t snap_epoch = dirty_snap >> kSizeBits;
  const uint64_t snap_size = dirty_snap & ((uint64_t{1} << kSizeBits) - 1);
  const bool stale = snap_epoch != dirty_epoch_;
  std::unordered_set<PartitionId> dirty;
  if (!stale) {
    for (size_t i = static_cast<size_t>(snap_size); i < dirty_log_.size();
         ++i) {
      dirty.insert(dirty_log_[i]);
    }
  }

  CatalogMutations capture;
  for (size_t i = begin; i < end; ++i) {
    Mutation& op = (*ops)[i];
    capture.touched.clear();
    capture.created.clear();
    capture.dropped.clear();
    Status status;
    switch (op.kind) {
      case Mutation::Kind::kInsert: {
        const Candidate chosen = ResolvePlacementLocked(
            win, win.group_of[i - begin], merged, stale, dirty);
        // Serial create-new rule: no partition, or best rating < 0.
        Partition* target = nullptr;
        if (chosen.valid && chosen.rating >= 0.0) {
          target = cinderella_->catalog().GetPartition(chosen.id);
          CINDERELLA_CHECK(target != nullptr);
        }
        cinderella_->AddMutationListener(&capture);
        status = cinderella_->InsertResolved(std::move(op.row),
                                             (*synopses)[i], target);
        cinderella_->RemoveMutationListener(&capture);
        break;
      }
      case Mutation::Kind::kUpdate: {
        const size_t g = win.group_of[i - begin];
        const Top2& top = merged[g];
        // The home partition's live state changes mid-op (the old row is
        // removed between the two scans of UpdateResolved), so it joins
        // the dirty set for resolution — and all re-ratings come from the
        // live catalog, which the mirror matches exactly for every id
        // dirtied by *completed* commits but not for home mid-op.
        const std::optional<PartitionId> home =
            cinderella_->catalog().FindEntity(op.entity);
        auto resolver = [&](const Synopsis& synopsis,
                            double entity_size) -> Cinderella::ResolvedScan {
          const PartitionId home_id = *home;
          auto excluded = [&](PartitionId id) {
            return dirty.count(id) > 0 || id == home_id;
          };
          Candidate chosen;
          const bool best_excl = top.best.valid && excluded(top.best.id);
          const bool second_excl = top.second.valid && excluded(top.second.id);
          if (stale || (best_excl && second_excl)) {
            ++stats_.rescans;
            cinderella_->catalog().ForEachPartition([&](Partition& partition) {
              ++stats_.reratings;
              Consider(&chosen, RateLive(partition, synopsis, entity_size),
                       partition.id());
            });
          } else {
            if (top.best.valid && !best_excl) {
              Consider(&chosen, top.best.rating, top.best.id);
            }
            if (top.second.valid && !second_excl) {
              Consider(&chosen, top.second.rating, top.second.id);
            }
            auto rerate = [&](PartitionId id) {
              // Dropped partitions stop being candidates.
              const Partition* partition =
                  cinderella_->catalog().GetPartition(id);
              if (partition == nullptr) return;
              ++stats_.reratings;
              Consider(&chosen, RateLive(*partition, synopsis, entity_size),
                       id);
            };
            for (const PartitionId id : dirty) rerate(id);
            if (dirty.count(home_id) == 0) rerate(home_id);
          }
          Cinderella::ResolvedScan scan;
          if (chosen.valid) {
            scan.valid = true;
            scan.id = chosen.id;
            scan.rating = chosen.rating;
          }
          return scan;
        };
        cinderella_->AddMutationListener(&capture);
        status = cinderella_->UpdateResolved(std::move(op.row), (*synopses)[i],
                                             resolver);
        cinderella_->RemoveMutationListener(&capture);
        if (status.ok()) ++stats_.updates;
        break;
      }
      case Mutation::Kind::kDelete: {
        // Deletes need no placement; the serial routine (incl. a possible
        // dissolution, which re-rates from the live catalog) runs under
        // the commit lock and its effects enter the dirty log below.
        cinderella_->AddMutationListener(&capture);
        status = cinderella_->Delete(op.entity);
        cinderella_->RemoveMutationListener(&capture);
        if (status.ok()) ++stats_.deletes;
        break;
      }
    }
    if (!status.ok()) {
      // A failed op may have partially mutated the catalog (mid-cascade
      // internal error, or an id race lost to a concurrent batch);
      // rebuild the mirror defensively.
      RebuildLocked();
      return status;
    }
    AppendMutationsLocked(capture, &dirty);
    synced_generation_ = cinderella_->catalog_generation();
    if (applied != nullptr) ++*applied;
  }
  // Window committed in full: first the spill boundary (cold-partition
  // eviction, whose residency changes land in the same pending delta),
  // then the MVCC publisher snapshots it while the catalog is still
  // quiescent under the commit lock. (The failure return above skips
  // both — the facade publishes the partial prefix itself.)
  if (spill_hook_) spill_hook_();
  if (commit_hook_) {
    WindowCommit commit;
    commit.rows = end - begin;
    commit.dirty_partitions = dirty.size();
    commit_hook_(commit);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reorganize.
// ---------------------------------------------------------------------------

Status MutationPipeline::Reorganize() {
  // The whole pass holds the commit lock: reorganize is stop-the-world by
  // nature (every partition is drained), and holding the lock means the
  // mirror is exactly live at each window's scan.
  std::lock_guard<std::mutex> lock(commit_mu_);
  StatusOr<std::vector<std::pair<Row, Synopsis>>> drained =
      cinderella_->DrainForReorganize();
  if (!drained.ok()) {
    RebuildLocked();
    return drained.status();
  }
  // Mirror the now-empty catalog; the epoch bump sends any in-flight
  // concurrent scan to the full-rescan path at its commit.
  RebuildLocked();

  std::vector<Mutation> ops;
  std::vector<Synopsis> synopses;
  ops.reserve(drained.value().size());
  synopses.reserve(drained.value().size());
  for (auto& [row, synopsis] : drained.value()) {
    ops.push_back(Mutation::Insert(std::move(row)));
    synopses.push_back(std::move(synopsis));
  }

  const size_t window = std::max<size_t>(1, options_.window);
  for (size_t begin = 0; begin < ops.size(); begin += window) {
    const size_t end = std::min(ops.size(), begin + window);
    CINDERELLA_RETURN_IF_ERROR(
        ReinsertWindowLocked(&ops, &synopses, begin, end));
  }
  ++stats_.batches;
  stats_.reinserts += ops.size();
  return Status::OK();
}

Status MutationPipeline::ReinsertWindowLocked(
    std::vector<Mutation>* ops, const std::vector<Synopsis>* synopses,
    size_t begin, size_t end) {
  Window win;
  BuildWindow(*ops, *synopses, begin, end, &win);
  std::vector<Top2> merged;
  uint64_t rated = 0;
  ScanWindow(win, &merged, &rated);
  ++stats_.windows;
  stats_.ratings += rated;

  // The lock is held across the whole reorganize: the mirror was fresh at
  // scan time and only this window's own commits dirty it.
  std::unordered_set<PartitionId> dirty;
  CatalogMutations capture;
  for (size_t i = begin; i < end; ++i) {
    const Candidate chosen = ResolvePlacementLocked(
        win, win.group_of[i - begin], merged, /*stale=*/false, dirty);
    Partition* target = nullptr;
    if (chosen.valid && chosen.rating >= 0.0) {
      target = cinderella_->catalog().GetPartition(chosen.id);
      CINDERELLA_CHECK(target != nullptr);
    }
    capture.touched.clear();
    capture.created.clear();
    capture.dropped.clear();
    cinderella_->AddMutationListener(&capture);
    const Status status = cinderella_->ReinsertResolved(
        std::move((*ops)[i].row), (*synopses)[i], target);
    cinderella_->RemoveMutationListener(&capture);
    if (!status.ok()) {
      RebuildLocked();
      return status;
    }
    AppendMutationsLocked(capture, &dirty);
    synced_generation_ = cinderella_->catalog_generation();
  }
  if (spill_hook_) spill_hook_();
  if (commit_hook_) {
    WindowCommit commit;
    commit.rows = end - begin;
    commit.dirty_partitions = dirty.size();
    commit_hook_(commit);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Mirror maintenance.
// ---------------------------------------------------------------------------

void MutationPipeline::SyncMirrorLocked() {
  if (cinderella_->catalog_generation() != synced_generation_) {
    RebuildLocked();
    ++stats_.rebuilds;
  }
}

void MutationPipeline::RebuildLocked() {
  catalog_.Clear();
  cinderella_->catalog().ForEachPartition([&](const Partition& partition) {
    catalog_.Upsert(partition.id(), partition.Size(measure_),
                    partition.rating_synopsis());
  });
  dirty_log_.clear();
  ++dirty_epoch_;
  PublishDirtyStateLocked();
  synced_generation_ = cinderella_->catalog_generation();
}

void MutationPipeline::AppendMutationsLocked(
    const CatalogMutations& mutations,
    std::unordered_set<PartitionId>* dirty) {
  auto refresh = [&](PartitionId id) {
    const Partition* partition = cinderella_->catalog().GetPartition(id);
    if (partition != nullptr) {
      catalog_.Upsert(id, partition->Size(measure_),
                      partition->rating_synopsis());
    }
    dirty_log_.push_back(id);
    dirty->insert(id);
  };
  for (const PartitionId id : mutations.created) refresh(id);
  for (const PartitionId id : mutations.touched) refresh(id);
  for (const PartitionId id : mutations.dropped) {
    catalog_.Remove(id);
    dirty_log_.push_back(id);
    dirty->insert(id);
  }
  if (dirty_log_.size() > kDirtyLogTrim) {
    // Bound the log; in-flight scans that snapshotted the old epoch fall
    // back to the full-rescan path at their commit.
    dirty_log_.clear();
    ++dirty_epoch_;
  }
  PublishDirtyStateLocked();
}

void MutationPipeline::PublishDirtyStateLocked() {
  CINDERELLA_DCHECK(dirty_log_.size() <
                    (size_t{1} << kSizeBits));
  dirty_state_.store((dirty_epoch_ << kSizeBits) |
                         static_cast<uint64_t>(dirty_log_.size()),
                     std::memory_order_release);
}

std::unique_ptr<MutationPipeline> AttachMutationPipeline(
    Cinderella* cinderella, MutationPipelineOptions options) {
  auto engine = std::make_unique<MutationPipeline>(cinderella, options);
  cinderella->set_batch_engine(engine.get());
  return engine;
}

}  // namespace cinderella
