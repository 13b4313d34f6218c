#include "mvcc/versioned_table.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"

namespace cinderella {

VersionedTable::VersionedTable(std::unique_ptr<Cinderella> table)
    : VersionedTable(std::move(table), Options()) {}

VersionedTable::VersionedTable(std::unique_ptr<Cinderella> table,
                               Options options)
    : owned_(std::move(table)), cinderella_(owned_.get()) {
  CINDERELLA_CHECK(cinderella_ != nullptr);
  if (options.batched_ingest) {
    owned_engine_ = AttachBatchInserter(cinderella_, options.ingest);
    engine_ = owned_engine_.get();
  }
  Hook();
}

VersionedTable::VersionedTable(Cinderella* table, BatchInserter* engine)
    : cinderella_(table), engine_(engine) {
  CINDERELLA_CHECK(cinderella_ != nullptr);
  Hook();
}

void VersionedTable::Hook() {
  cinderella_->AddMutationListener(&pending_);
  if (cinderella_->config().use_synopsis_tree) {
    // The tree indexes *attribute* synopses (what queries probe), so it
    // is useful at any rating weight.
    query_tree_ = std::make_unique<SynopsisTree>(
        static_cast<size_t>(cinderella_->config().tree_fanout));
  }
  if (engine_ != nullptr) {
    engine_->set_commit_hook([this](const BatchInserter::WindowCommit& commit) {
      std::lock_guard<std::mutex> lock(publish_mu_);
      // The window's dirty-partition count bounds the publication delta;
      // passing it pre-sizes the fresh-version scratch.
      PublishLocked(commit.dirty_partitions);
    });
  }
  std::lock_guard<std::mutex> lock(publish_mu_);
  RebuildViewLocked();
}

VersionedTable::~VersionedTable() {
  if (engine_ != nullptr) engine_->set_commit_hook(nullptr);
  cinderella_->RemoveMutationListener(&pending_);

  // The contract requires every Snapshot to be released before the table
  // dies — a pinned reader would otherwise scan freed memory no epoch can
  // protect once the manager itself is gone.
  CINDERELLA_CHECK(epochs_.pinned_count() == 0);
  const CatalogView* view = current_.load(std::memory_order_seq_cst);
  if (view != nullptr) {
    for (const PartitionVersion* version : view->partitions()) {
      epochs_.RetireObject(const_cast<PartitionVersion*>(version),
                           &VersionedTable::ReclaimVersion);
    }
    epochs_.Retire(view);
  }
  epochs_.Advance();
  CINDERELLA_CHECK(epochs_.retired_count() == 0);
  CINDERELLA_CHECK(held_bytes_.load(std::memory_order_relaxed) == 0);
}

// -- Read path ----------------------------------------------------------------

VersionedTable::Snapshot VersionedTable::snapshot() const {
  // Pin first, then load: any view reachable through current_ after the
  // pin was retired (if ever) no earlier than the pinned epoch, so it
  // cannot be freed until Unpin.
  const size_t slot = epochs_.Pin();
  const CatalogView* view = current_.load(std::memory_order_seq_cst);
  return Snapshot(&epochs_, slot, view);
}

StatusOr<Row> VersionedTable::Get(EntityId entity) const {
  Snapshot snap = snapshot();
  const RowView row = snap.view().Find(entity);
  if (row.valid()) {
    return row.ToRow();  // Copy before the snapshot (and its pin) is released.
  }
  // Cold versions carry no point index; scan their (snapshot-pinned) page
  // chains. The shared chain keeps the pages alive even if the live
  // partition was faulted hot or re-spilled since this view published.
  for (const PartitionVersion* version : snap.view().partitions()) {
    if (!version->cold()) continue;
    Row found;
    bool hit = false;
    CINDERELLA_RETURN_IF_ERROR(version->cold_tier()->ReadChain(
        *version->cold_chain(), [&](Row&& candidate) {
          if (candidate.id() == entity) {
            found = std::move(candidate);
            hit = true;
          }
        }));
    if (hit) return found;
  }
  return Status::NotFound("entity " + std::to_string(entity) +
                          " not in table");
}

size_t VersionedTable::entity_count() const {
  return snapshot().view().entity_count();
}

size_t VersionedTable::partition_count() const {
  return snapshot().view().partition_count();
}

uint64_t VersionedTable::published_generation() const {
  return snapshot().view().generation();
}

VersionedTable::MemoryStats VersionedTable::memory_stats() const {
  MemoryStats stats;
  {
    Snapshot snap = snapshot();
    stats.generation = snap.view().generation();
    stats.live_versions = snap.view().partition_count();
    for (const PartitionVersion* version : snap.view().partitions()) {
      stats.view_bytes += version->buffer_bytes();
      if (version->cold()) {
        ++stats.cold_versions;
        stats.cold_bytes += version->cold_chain()->bytes;
        stats.cold_pages += version->cold_chain()->pages;
      } else {
        ++stats.hot_versions;
      }
    }
  }
  stats.held_bytes = held_bytes_.load(std::memory_order_relaxed);
  stats.retired_objects = epochs_.retired_count();
  stats.reclaimed_objects = epochs_.reclaimed_count();
  stats.arenas.blocks_allocated =
      buffers_allocated_.load(std::memory_order_relaxed);
  if (query_tree_ != nullptr) {
    std::lock_guard<std::mutex> lock(publish_mu_);
    const SynopsisTree::Stats& tree = query_tree_->stats();
    stats.tree.enabled = true;
    stats.tree.depth = query_tree_->depth();
    stats.tree.fanout = query_tree_->fanout();
    stats.tree.internal_nodes = query_tree_->internal_node_count();
    stats.tree.live_leaves = query_tree_->live_count();
    stats.tree.upserts = tree.upserts;
    stats.tree.removes = tree.removes;
    stats.tree.fast_merges = tree.fast_merges;
    stats.tree.node_reors = tree.node_reors;
    stats.tree.nodes_copied = tree.nodes_copied;
    stats.tree.collapses = tree.collapses;
  }
  return stats;
}

// -- Write path ---------------------------------------------------------------

Status VersionedTable::Apply(const std::function<Status()>& op) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  const Status status = op();
  // Publish even on failure: a failed operation may have mutated the
  // catalog on a partial path (e.g. a split cascade that errors late), and
  // the captured delta must reach the published view either way.
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  PublishLocked();
  return status;
}

Status VersionedTable::Insert(Row row) {
  return Apply([&] { return cinderella_->Insert(std::move(row)); });
}

Status VersionedTable::Update(Row row) {
  return Apply([&] { return cinderella_->Update(std::move(row)); });
}

Status VersionedTable::Delete(EntityId entity) {
  return Apply([&] { return cinderella_->Delete(entity); });
}

Status VersionedTable::DeleteBatch(const std::vector<EntityId>& entities) {
  return Apply([&] { return cinderella_->DeleteBatch(entities); });
}

Status VersionedTable::InsertBatch(std::vector<Row> rows) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  // Routes through the attached engine when one is set; its commit hook
  // publishes one view per committed window (under commit_mu_, which nests
  // inside write_mu_ here). The publication below catches the tail: the
  // serial fallback path, and the committed prefix of a batch that failed
  // mid-window (whose hook never ran).
  const Status status = cinderella_->InsertBatch(std::move(rows));
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  PublishLocked();
  return status;
}

Status VersionedTable::UpdateBatch(std::vector<Row> rows) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  // Same per-window publication story as InsertBatch: an update that moves
  // an entity dirties both its old and new partitions, and the window's
  // commit hook publishes them together as one consistent snapshot.
  const Status status = cinderella_->UpdateBatch(std::move(rows));
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  PublishLocked();
  return status;
}

Status VersionedTable::ApplyMutations(std::vector<Mutation> ops,
                                      size_t* applied) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  const Status status = cinderella_->ApplyMutations(std::move(ops), applied);
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  PublishLocked();
  return status;
}

Status VersionedTable::RepartitionEntities(
    const std::vector<EntityId>& entities, RepartitionResult* result) {
  RepartitionResult local;
  std::lock_guard<std::mutex> write_lock(write_mu_);
  // Capture the drain set from the live catalog under the writer lock:
  // every row copied here is guaranteed live for the whole apply (no
  // other writer can run until we release write_mu_).
  const PartitionCatalog& catalog = cinderella_->catalog();
  std::vector<Row> rows;
  rows.reserve(entities.size());
  std::unordered_set<EntityId> seen;
  seen.reserve(entities.size());
  for (EntityId entity : entities) {
    if (!seen.insert(entity).second) continue;
    ++local.requested;
    const std::optional<PartitionId> home = catalog.FindEntity(entity);
    const Partition* partition =
        home.has_value() ? catalog.GetPartition(*home) : nullptr;
    const Row* row =
        partition != nullptr ? partition->segment().Find(entity) : nullptr;
    if (row == nullptr) {
      ++local.missing;
      continue;
    }
    rows.push_back(*row);
  }
  if (rows.empty()) {
    if (result != nullptr) *result = local;
    return Status::OK();
  }
  // Reinsert most-descriptive rows first (DrainForReorganize's order):
  // they seed partitions and split starters, so sparser rows join
  // well-formed groups.
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.attribute_count() > b.attribute_count();
  });
  std::vector<Mutation> ops;
  ops.reserve(rows.size() * 2);
  for (const Row& row : rows) ops.push_back(Mutation::Delete(row.id()));
  for (Row& row : rows) ops.push_back(Mutation::Insert(std::move(row)));
  const size_t drained = ops.size() / 2;
  size_t applied = 0;
  const Status status = cinderella_->ApplyMutations(std::move(ops), &applied);
  // moved = reinsertions committed; deletes occupy the first half of the
  // op list, so a partial prefix beyond it counts applied inserts.
  local.moved =
      status.ok() ? drained : (applied > drained ? applied - drained : 0);
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  PublishLocked();
  if (result != nullptr) *result = local;
  return status;
}

Status VersionedTable::Reorganize() {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  const Status status = cinderella_->Reorganize();
  // Reorganize rewrites the whole catalog; a full rebuild is both simpler
  // and cheaper than a delta covering every partition.
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  RebuildViewLocked();
  return status;
}

void VersionedTable::RefreshView() {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  RebuildViewLocked();
}

Status VersionedTable::SpillPartitions(const std::vector<PartitionId>& ids,
                                       size_t* spilled) {
  if (spilled != nullptr) *spilled = 0;
  if (cinderella_->cold_tier() == nullptr) {
    return Status::FailedPrecondition("no cold tier attached");
  }
  std::lock_guard<std::mutex> write_lock(write_mu_);
  size_t count = 0;
  Status status = Status::OK();
  for (const PartitionId id : ids) {
    // Plans are made on pinned snapshots; a partition may have been
    // dropped, emptied, or already spilled since — skip, never fail.
    const Partition* partition = cinderella_->catalog().GetPartition(id);
    if (partition == nullptr || partition->cold() ||
        partition->entity_count() == 0) {
      continue;
    }
    status = cinderella_->SpillPartition(id);
    if (!status.ok()) break;
    ++count;
  }
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  PublishLocked();
  if (spilled != nullptr) *spilled = count;
  return status;
}

// -- Publication --------------------------------------------------------------

const PartitionVersion* VersionedTable::MakeVersionLocked(
    const Partition& partition) {
  buffers_allocated_.fetch_add(1, std::memory_order_relaxed);
  return PartitionVersion::Create(partition, cinderella_->cold_tier(),
                                  &held_bytes_);
}

void VersionedTable::ReclaimVersion(void* object) {
  PartitionVersion::Destroy(static_cast<const PartitionVersion*>(object));
}

void VersionedTable::PublishLocked(size_t delta_hint) {
  // Ping-pong the delta buffers with pending_: both sides keep their
  // vector capacity, so draining the capture allocates nothing at steady
  // state.
  delta_scratch_.touched.clear();
  delta_scratch_.created.clear();
  delta_scratch_.dropped.clear();
  delta_scratch_.touched.swap(pending_.touched);
  delta_scratch_.created.swap(pending_.created);
  delta_scratch_.dropped.swap(pending_.dropped);
  const CatalogMutations& delta = delta_scratch_;
  if (delta.touched.empty() && delta.created.empty() && delta.dropped.empty()) {
    return;  // Nothing changed since the last publication.
  }

  const PartitionCatalog& catalog = cinderella_->catalog();

  dropped_scratch_.clear();
  dropped_scratch_.insert(delta.dropped.begin(), delta.dropped.end());
  std::unordered_set<PartitionId>& dropped = dropped_scratch_;
  fresh_scratch_.clear();
  if (delta_hint != 0) fresh_scratch_.reserve(delta_hint);
  std::unordered_map<PartitionId, const PartitionVersion*>& fresh =
      fresh_scratch_;

  // Fresh versions for every partition the delta touched or created that
  // is still live. A touched-then-dropped partition (split source, drained
  // empty partition) lands in `dropped` or resolves to nullptr and is
  // excluded either way.
  auto consider = [&](PartitionId id) {
    if (dropped.count(id) != 0 || fresh.count(id) != 0) return;
    const Partition* partition = catalog.GetPartition(id);
    // A live-but-empty partition (a DeleteBatch drained it and the drop
    // is still pending, or a cascade failed before its sweep) is dropped
    // from the view: published views never carry empty versions, keeping
    // estimator totals consistent with entity counts.
    if (partition == nullptr || partition->entity_count() == 0) {
      dropped.insert(id);
      return;
    }
    fresh.emplace(id, MakeVersionLocked(*partition));
  };
  for (PartitionId id : delta.touched) consider(id);
  for (PartitionId id : delta.created) consider(id);

  // Incremental tree maintenance: the delta's drops and fresh versions
  // are exactly the leaves that changed. Must run while `fresh` is still
  // intact (the splice loop below erases from it). Remove is a no-op for
  // ids never published (created-then-dropped), so the dropped set can be
  // applied wholesale.
  if (query_tree_ != nullptr) {
    for (PartitionId id : dropped) query_tree_->Remove(id);
    for (const auto& [id, version] : fresh) {
      const SynopsisSpan span = version->attribute_synopsis();
      query_tree_->UpsertWords(id, span.words, span.num_words);
    }
  }

  const CatalogView* old_view = current_.load(std::memory_order_seq_cst);
  auto* view = new CatalogView();
  superseded_scratch_.clear();
  std::vector<const PartitionVersion*>& superseded = superseded_scratch_;
  view->partitions_.reserve(old_view->partitions().size() + fresh.size());
  for (const PartitionVersion* old_version : old_view->partitions()) {
    const PartitionId id = old_version->id();
    if (dropped.count(id) != 0) {
      superseded.push_back(old_version);
      continue;
    }
    const auto it = fresh.find(id);
    if (it != fresh.end()) {
      view->partitions_.push_back(it->second);
      superseded.push_back(old_version);
      fresh.erase(it);
    } else {
      view->partitions_.push_back(old_version);  // Shared with old_view.
    }
  }
  // What remains in `fresh` was created since the old view. Created ids
  // are always larger than any id live before them (catalog slots are
  // never reused), so appending in ascending id order keeps the whole
  // array sorted.
  created_scratch_.clear();
  for (const auto& [id, version] : fresh) created_scratch_.push_back(version);
  std::sort(created_scratch_.begin(), created_scratch_.end(),
            [](const PartitionVersion* a, const PartitionVersion* b) {
              return a->id() < b->id();
            });
  view->partitions_.insert(view->partitions_.end(), created_scratch_.begin(),
                           created_scratch_.end());

  size_t entities = 0;
  for (const PartitionVersion* version : view->partitions_) {
    entities += version->entity_count();
  }
  view->entity_count_ = entities;
  if (query_tree_ != nullptr) view->tree_ = query_tree_->Share();

  InstallLocked(view, superseded);
}

void VersionedTable::RebuildViewLocked() {
  // A rebuild supersedes the delta wholesale.
  pending_.touched.clear();
  pending_.created.clear();
  pending_.dropped.clear();

  auto* view = new CatalogView();
  const PartitionCatalog& catalog = cinderella_->catalog();
  view->partitions_.reserve(catalog.partition_count());
  // Full rebuilds regenerate the tree bulk-bottom-up: one union per
  // internal node instead of a re-OR spine per leaf. The leaf synopsis
  // pointers reference the live partitions, valid for the whole pass.
  std::vector<std::pair<uint64_t, const Synopsis*>> leaves;
  if (query_tree_ != nullptr) leaves.reserve(catalog.partition_count());
  catalog.ForEachPartition([&](const Partition& partition) {
    // Same invariant as PublishLocked: views never carry empty versions.
    if (partition.entity_count() == 0) return;
    view->partitions_.push_back(MakeVersionLocked(partition));
    if (query_tree_ != nullptr) {
      leaves.emplace_back(partition.id(),
                          &partition.attribute_refcounts().synopsis());
    }
  });
  if (query_tree_ != nullptr) query_tree_->BulkBuild(std::move(leaves));
  view->entity_count_ = catalog.entity_count();
  if (query_tree_ != nullptr) view->tree_ = query_tree_->Share();

  const CatalogView* old_view = current_.load(std::memory_order_seq_cst);
  std::vector<const PartitionVersion*> superseded;
  if (old_view != nullptr) superseded = old_view->partitions();
  InstallLocked(view, superseded);
}

void VersionedTable::InstallLocked(
    CatalogView* view, const std::vector<const PartitionVersion*>& superseded) {
  view->generation_ = ++view_generation_;
  const CatalogView* old_view =
      current_.exchange(view, std::memory_order_seq_cst);
  // Retire before Advance: the garbage is tagged with the pre-advance
  // epoch, so a reader whose verified pin predates this publication keeps
  // it alive, while post-advance readers (who can only load the new view)
  // never block its reclamation.
  for (const PartitionVersion* version : superseded) {
    epochs_.RetireObject(const_cast<PartitionVersion*>(version),
                         &VersionedTable::ReclaimVersion);
  }
  if (old_view != nullptr) epochs_.Retire(old_view);
  epochs_.Advance();
}

}  // namespace cinderella
