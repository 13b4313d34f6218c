#include "core/cinderella.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "core/rating.h"

namespace cinderella {

StatusOr<std::unique_ptr<Cinderella>> Cinderella::Create(
    CinderellaConfig config) {
  CINDERELLA_RETURN_IF_ERROR(config.Validate());
  if (config.mode == SynopsisMode::kWorkloadBased) {
    return Status::InvalidArgument(
        "workload-based mode requires a workload; use the two-argument "
        "Create overload");
  }
  return std::unique_ptr<Cinderella>(
      new Cinderella(std::move(config), nullptr));
}

StatusOr<std::unique_ptr<Cinderella>> Cinderella::Create(
    CinderellaConfig config, std::vector<Synopsis> workload) {
  CINDERELLA_RETURN_IF_ERROR(config.Validate());
  if (config.mode != SynopsisMode::kWorkloadBased) {
    return Status::InvalidArgument(
        "a workload is only meaningful in workload-based mode");
  }
  if (workload.empty()) {
    return Status::InvalidArgument("workload must not be empty");
  }
  return std::unique_ptr<Cinderella>(new Cinderella(
      std::move(config),
      std::make_unique<WorkloadSynopsisBuilder>(std::move(workload))));
}

Cinderella::Cinderella(CinderellaConfig config,
                       std::unique_ptr<WorkloadSynopsisBuilder> workload)
    : config_(config),
      catalog_(/*separate_rating_synopsis=*/workload != nullptr),
      workload_(std::move(workload)),
      rng_(config.starter_seed) {
  extractor_ = workload_ != nullptr ? workload_->AsExtractor()
                                    : MakeEntityBasedExtractor();
  const int degree = ThreadPool::ResolveDegree(config_.scan_threads);
  if (degree > 1) pool_ = std::make_unique<ThreadPool>(degree);
}

std::string Cinderella::name() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "cinderella(w=%.2f,B=%llu,%s%s)",
                config_.weight,
                static_cast<unsigned long long>(config_.max_size),
                SizeMeasureToString(config_.measure),
                config_.mode == SynopsisMode::kWorkloadBased ? ",workload"
                                                             : "");
  return buf;
}

Status Cinderella::VerifyIntegrity() const {
  auto fail = [](std::string message) {
    return Status::Internal("integrity: " + std::move(message));
  };
  size_t resident_rows = 0;
  Status violation;  // First violation found (ForEach cannot early-out).
  catalog_.ForEachPartition([&](const Partition& partition) {
    if (!violation.ok()) return;
    const std::string where = "partition " + std::to_string(partition.id());
    if (partition.entity_count() == 0) {
      violation = fail(where + " is empty");
      return;
    }
    if (config_.measure == SizeMeasure::kEntityCount &&
        partition.entity_count() > config_.max_size) {
      violation = fail(where + " exceeds MAXSIZE");
      return;
    }
    // Rows stream from the segment or, for a cold partition, back from its
    // page chain (exercising the tier's read path as a side effect).
    Synopsis attribute_union;
    Synopsis rating_union;
    uint64_t rows = 0;
    uint64_t cells = 0;
    uint64_t bytes = 0;
    std::string misbound;  // First misbound resident, if any.
    const std::optional<Partition::Starter>* starters[] = {
        &partition.starter_a(), &partition.starter_b()};
    bool starter_resident[] = {false, false};
    bool starter_stale = false;
    const Status read = partition.ForEachRow([&](const Row& row) {
      ++rows;
      const Synopsis rating = extractor_(row);
      attribute_union.UnionWith(row.AttributeSynopsis());
      rating_union.UnionWith(rating);
      cells += row.attribute_count();
      bytes += row.byte_size();
      const auto home = catalog_.FindEntity(row.id());
      if (misbound.empty() && (!home.has_value() || *home != partition.id())) {
        misbound = "entity " + std::to_string(row.id()) +
                   " misbound (resident in " + where + ")";
      }
      for (size_t s = 0; s < 2; ++s) {
        const std::optional<Partition::Starter>& starter = *starters[s];
        if (!starter.has_value() || starter->entity != row.id()) continue;
        starter_resident[s] = true;
        if (starter->synopsis != rating) starter_stale = true;
      }
    });
    if (!read.ok()) {
      violation = read;
      return;
    }
    resident_rows += rows;
    if (rows != partition.entity_count()) {
      violation = fail(where + " row count drift");
      return;
    }
    if (!misbound.empty()) {
      violation = fail(misbound);
      return;
    }
    if (partition.attribute_synopsis() != attribute_union) {
      violation = fail(where + " attribute synopsis drift");
      return;
    }
    if (partition.rating_synopsis() != rating_union) {
      violation = fail(where + " rating synopsis drift");
      return;
    }
    if (partition.Size(SizeMeasure::kAttributeCount) != cells ||
        partition.Size(SizeMeasure::kByteSize) != bytes) {
      violation = fail(where + " size accounting drift");
      return;
    }
    for (size_t s = 0; s < 2; ++s) {
      if (starters[s]->has_value() && !starter_resident[s]) {
        violation = fail(where + " starter not resident");
        return;
      }
    }
    if (starter_stale) {
      violation = fail(where + " starter synopsis stale");
      return;
    }
    if (partition.starter_a().has_value() &&
        partition.starter_b().has_value() &&
        partition.starter_a()->entity == partition.starter_b()->entity) {
      violation = fail(where + " duplicate split starters");
      return;
    }
  });
  CINDERELLA_RETURN_IF_ERROR(violation);
  if (resident_rows != catalog_.entity_count()) {
    return fail("binding count " + std::to_string(catalog_.entity_count()) +
                " != resident rows " + std::to_string(resident_rows));
  }
  return Status::OK();
}

StatusOr<std::vector<std::pair<Row, Synopsis>>>
Cinderella::DrainForReorganize() {
  ++catalog_generation_;
  // Extract everything.
  std::vector<std::pair<Row, Synopsis>> all;
  all.reserve(catalog_.entity_count());
  const std::vector<PartitionId> partitions = catalog_.LivePartitionIds();
  for (PartitionId id : partitions) {
    Partition* partition = catalog_.GetPartition(id);
    CINDERELLA_CHECK(partition != nullptr);
    CINDERELLA_RETURN_IF_ERROR(EnsureHot(*partition));
    ++stats_.partitions_dissolved;
    while (partition->entity_count() > 0) {
      const Row& next = partition->segment().rows().front();
      Synopsis synopsis = extractor_(next);
      StatusOr<Row> removed =
          RemoveRowFromPartition(*partition, next.id(), synopsis);
      CINDERELLA_RETURN_IF_ERROR(removed.status());
      all.emplace_back(std::move(removed).value(), std::move(synopsis));
    }
    DropEmptyPartition(*partition);
  }
  // Most descriptive entities first: they become partition seeds and
  // split starters, so later sparse entities join well-formed groups.
  std::stable_sort(all.begin(), all.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.Count() > b.second.Count();
                   });
  return all;
}

Status Cinderella::Reorganize() {
  if (batch_engine_ != nullptr) return batch_engine_->Reorganize();
  StatusOr<std::vector<std::pair<Row, Synopsis>>> drained =
      DrainForReorganize();
  CINDERELLA_RETURN_IF_ERROR(drained.status());
  for (auto& [row, synopsis] : drained.value()) {
    ++stats_.entities_reinserted;
    CINDERELLA_RETURN_IF_ERROR(
        InsertIntoCatalog(std::move(row), synopsis, nullptr, 0));
  }
  return Status::OK();
}

Status Cinderella::ReinsertResolved(Row row, const Synopsis& synopsis,
                                    Partition* target) {
  ++catalog_generation_;
  ++stats_.entities_reinserted;
  return PlaceRow(std::move(row), synopsis, target, nullptr, 0);
}

Status Cinderella::RestorePartition(std::vector<Row> rows,
                                    std::optional<EntityId> starter_a,
                                    std::optional<EntityId> starter_b) {
  ++catalog_generation_;
  if (rows.empty()) {
    return Status::InvalidArgument("cannot restore an empty partition");
  }
  // Validate against the catalog AND within the batch before creating the
  // partition: a duplicate detected after the first AddRow would leave a
  // partially-built partition behind (audit: empty-partition leak fix).
  std::unordered_set<EntityId> batch_ids;
  batch_ids.reserve(rows.size());
  for (const Row& row : rows) {
    if (!batch_ids.insert(row.id()).second ||
        catalog_.FindEntity(row.id()).has_value()) {
      return Status::AlreadyExists("entity " + std::to_string(row.id()) +
                                   " duplicated in restore batch or already "
                                   "in table");
    }
  }
  for (const std::optional<EntityId>& starter : {starter_a, starter_b}) {
    if (starter.has_value() && batch_ids.count(*starter) == 0) {
      return Status::InvalidArgument("split starter " +
                                     std::to_string(*starter) +
                                     " is not a row of its partition");
    }
  }
  if (starter_a.has_value() && starter_a == starter_b) {
    return Status::InvalidArgument("duplicate split starter " +
                                   std::to_string(*starter_a));
  }
  Partition& partition = catalog_.CreatePartition();
  ++stats_.partitions_created;
  RecordCreated(partition.id());
  for (Row& row : rows) {
    const Synopsis synopsis = extractor_(row);
    // A starter keeps the rating synopsis of its row, as at insert time.
    if (row.id() == starter_a) {
      partition.set_starter_a(Partition::Starter{row.id(), synopsis});
    }
    if (row.id() == starter_b) {
      partition.set_starter_b(Partition::Starter{row.id(), synopsis});
    }
    CINDERELLA_RETURN_IF_ERROR(
        AddRowToPartition(partition, std::move(row), synopsis));
    ++stats_.inserts;
  }
  return Status::OK();
}

const std::vector<Synopsis>& Cinderella::workload() const {
  static const std::vector<Synopsis>* empty = new std::vector<Synopsis>();
  return workload_ != nullptr ? workload_->workload() : *empty;
}

// ---------------------------------------------------------------------------
// Cold tier.
// ---------------------------------------------------------------------------

Status Cinderella::SpillPartition(PartitionId id) {
  if (cold_tier_ == nullptr) {
    return Status::FailedPrecondition("no cold tier attached");
  }
  Partition* partition = catalog_.GetPartition(id);
  if (partition == nullptr) {
    return Status::NotFound("no partition " + std::to_string(id));
  }
  if (partition->cold()) return Status::OK();
  if (partition->entity_count() == 0) {
    return Status::FailedPrecondition("partition " + std::to_string(id) +
                                      " is empty");
  }
  // Write first, switch after: a failed write leaves the partition hot
  // and untouched.
  StatusOr<std::shared_ptr<const ColdChain>> chain =
      cold_tier_->WriteChain(partition->segment().rows());
  CINDERELLA_RETURN_IF_ERROR(chain.status());
  partition->SetCold(std::move(chain).value());
  ++stats_.spills;
  RecordTouched(id);
  return Status::OK();
}

Status Cinderella::EnsureHot(Partition& partition) {
  if (!partition.cold()) return Status::OK();
  CINDERELLA_CHECK(cold_tier_ != nullptr);
  std::vector<Row> rows;
  rows.reserve(partition.cold_chain()->entities);
  CINDERELLA_RETURN_IF_ERROR(cold_tier_->ReadChain(
      *partition.cold_chain(),
      [&](Row&& row) { rows.push_back(std::move(row)); }));
  CINDERELLA_RETURN_IF_ERROR(partition.FaultIn(std::move(rows)));
  ++stats_.faults;
  RecordTouched(partition.id());
  return Status::OK();
}

Status Cinderella::ForEachRowOf(
    const Partition& partition,
    const std::function<void(const Row&)>& fn) const {
  return partition.ForEachRow(fn);
}

// ---------------------------------------------------------------------------
// Row movement helpers.
// ---------------------------------------------------------------------------

Status Cinderella::AddRowToPartition(Partition& partition, Row row,
                                     const Synopsis& synopsis) {
  const EntityId entity = row.id();
  std::vector<AttributeId> added;
  CINDERELLA_RETURN_IF_ERROR(partition.AddRow(
      std::move(row), synopsis, config_.use_synopsis_index ? &added : nullptr));
  catalog_.BindEntity(entity, partition.id());
  if (config_.use_synopsis_index) {
    for (AttributeId id : added) index_.AddPosting(id, partition.id());
    if (partition.rating_synopsis().Empty()) {
      empty_synopsis_partitions_.insert(partition.id());
    } else {
      empty_synopsis_partitions_.erase(partition.id());
    }
  }
  RecordTouched(partition.id());
  return Status::OK();
}

StatusOr<Row> Cinderella::RemoveRowFromPartition(Partition& partition,
                                                 EntityId entity,
                                                 const Synopsis& synopsis) {
  std::vector<AttributeId> removed;
  StatusOr<Row> row = partition.RemoveRow(
      entity, synopsis, config_.use_synopsis_index ? &removed : nullptr);
  if (!row.ok()) return row;
  catalog_.UnbindEntity(entity);
  if (config_.use_synopsis_index) {
    for (AttributeId id : removed) index_.RemovePosting(id, partition.id());
    if (partition.entity_count() > 0 && partition.rating_synopsis().Empty()) {
      empty_synopsis_partitions_.insert(partition.id());
    } else {
      empty_synopsis_partitions_.erase(partition.id());
    }
  }
  RecordTouched(partition.id());
  return row;
}

void Cinderella::DropEmptyPartition(Partition& partition) {
  CINDERELLA_DCHECK(partition.entity_count() == 0);
  empty_synopsis_partitions_.erase(partition.id());
  RecordDropped(partition.id());
  const Status status = catalog_.DropPartition(partition.id());
  CINDERELLA_CHECK(status.ok());
  ++stats_.partitions_dropped;
}

// ---------------------------------------------------------------------------
// Rating scan.
// ---------------------------------------------------------------------------

Cinderella::BestPartition Cinderella::FindBestPartition(
    const Synopsis& synopsis, double entity_size,
    const std::vector<PartitionId>* restricted) {
  BestPartition best;
  best.rating = -std::numeric_limits<double>::infinity();

  auto consider = [&](Partition& partition) {
    ++stats_.partitions_rated;
    const double r = Rate(synopsis, entity_size, partition.rating_synopsis(),
                          static_cast<double>(partition.Size(config_.measure)),
                          config_.weight, config_.normalize_rating);
    if (r > best.rating) {
      best.rating = r;
      best.partition = &partition;
    }
  };

  if (restricted != nullptr) {
    for (PartitionId id : *restricted) {
      Partition* partition = catalog_.GetPartition(id);
      CINDERELLA_DCHECK(partition != nullptr);
      consider(*partition);
    }
    return best;
  }

  if (index_enabled()) {
    std::vector<PartitionId> candidates;
    index_.CollectCandidates(synopsis, &candidates);
    for (PartitionId id : empty_synopsis_partitions_) candidates.push_back(id);
    // Sort so ties keep the lowest id, matching the full scan order.
    std::sort(candidates.begin(), candidates.end());
    for (PartitionId id : candidates) {
      Partition* partition = catalog_.GetPartition(id);
      CINDERELLA_DCHECK(partition != nullptr);
      consider(*partition);
    }
    return best;
  }

  // Unrestricted full scan. With a pool and enough live partitions the
  // scan is chunked across the workers: each chunk computes a local
  // argmax over an ascending id range, and the chunk results are merged
  // in ascending order with the same strict `>` comparison the serial
  // loop uses — so ties keep the lowest partition id and the outcome is
  // bit-identical to the serial scan at any thread count.
  constexpr size_t kScanChunk = 64;
  if (pool_ != nullptr && catalog_.partition_count() >= 2 * kScanChunk) {
    const std::vector<PartitionId> ids = catalog_.LivePartitionIds();
    struct ChunkBest {
      Partition* partition = nullptr;
      double rating = -std::numeric_limits<double>::infinity();
      uint64_t rated = 0;
    };
    std::vector<ChunkBest> chunk_best(
        ThreadPool::NumChunks(ids.size(), kScanChunk));
    pool_->ParallelFor(
        ids.size(), kScanChunk,
        [&](size_t chunk_begin, size_t chunk_end, size_t chunk_index) {
          ChunkBest& local = chunk_best[chunk_index];
          for (size_t i = chunk_begin; i < chunk_end; ++i) {
            Partition* partition = catalog_.GetPartition(ids[i]);
            CINDERELLA_DCHECK(partition != nullptr);
            ++local.rated;
            const double r =
                Rate(synopsis, entity_size, partition->rating_synopsis(),
                     static_cast<double>(partition->Size(config_.measure)),
                     config_.weight, config_.normalize_rating);
            if (r > local.rating) {
              local.rating = r;
              local.partition = partition;
            }
          }
        });
    for (const ChunkBest& local : chunk_best) {
      stats_.partitions_rated += local.rated;
      if (local.partition != nullptr && local.rating > best.rating) {
        best.rating = local.rating;
        best.partition = local.partition;
      }
    }
    return best;
  }

  catalog_.ForEachPartition(consider);
  return best;
}

// ---------------------------------------------------------------------------
// Split starters.
// ---------------------------------------------------------------------------

void Cinderella::UpdateStarters(Partition& partition, EntityId entity,
                                const Synopsis& synopsis) {
  // Fill empty slots first (covers both the paper's "second starter
  // missing" case, line 15, and slots vacated by deletes).
  if (!partition.starter_a().has_value()) {
    partition.set_starter_a(Partition::Starter{entity, synopsis});
    return;
  }
  if (!partition.starter_b().has_value()) {
    if (partition.starter_a()->entity != entity) {
      partition.set_starter_b(Partition::Starter{entity, synopsis});
    }
    return;
  }
  if (config_.starter_policy != StarterPolicy::kMaxDiffHeuristic) return;

  // Lines 17-24: replace a starter when the new entity forms a more (or
  // equally) differential pair. The paper's MAX comparison admits ties.
  const Partition::Starter& a = *partition.starter_a();
  const Partition::Starter& b = *partition.starter_b();
  const size_t diff_ea = synopsis.XorCount(a.synopsis);
  const size_t diff_eb = synopsis.XorCount(b.synopsis);
  const size_t diff_ab = a.synopsis.XorCount(b.synopsis);
  if (diff_ea >= diff_eb && diff_ea >= diff_ab) {
    if (a.entity != entity) {
      partition.set_starter_b(Partition::Starter{entity, synopsis});
    }
  } else if (diff_eb >= diff_ab) {
    if (b.entity != entity) {
      partition.set_starter_a(Partition::Starter{entity, synopsis});
    }
  }
}

void Cinderella::EnsureStarters(Partition& partition) {
  const bool need_a = !partition.starter_a().has_value() &&
                      partition.entity_count() >= 1;
  const bool need_b = !partition.starter_b().has_value() &&
                      partition.entity_count() >= 2;
  if (!need_a && !need_b) return;

  // Promote a surviving starter into slot A.
  if (!partition.starter_a().has_value() &&
      partition.starter_b().has_value()) {
    partition.set_starter_a(*partition.starter_b());
    partition.set_starter_b(std::nullopt);
  }
  if (!partition.starter_a().has_value()) {
    const Row& first = partition.segment().rows().front();
    partition.set_starter_a(
        Partition::Starter{first.id(), extractor_(first)});
  }
  if (!partition.starter_b().has_value() && partition.entity_count() >= 2) {
    const Partition::Starter& a = *partition.starter_a();
    size_t best_diff = 0;
    const Row* best_row = nullptr;
    Synopsis best_synopsis;
    for (const Row& row : partition.segment().rows()) {
      if (row.id() == a.entity) continue;
      Synopsis s = extractor_(row);
      const size_t diff = s.XorCount(a.synopsis);
      if (best_row == nullptr || diff > best_diff) {
        best_diff = diff;
        best_row = &row;
        best_synopsis = std::move(s);
      }
    }
    CINDERELLA_DCHECK(best_row != nullptr);
    partition.set_starter_b(
        Partition::Starter{best_row->id(), std::move(best_synopsis)});
  }
}

void Cinderella::PickRandomStarters(Partition& partition) {
  const auto& rows = partition.segment().rows();
  if (rows.size() < 2) return;
  const size_t i = static_cast<size_t>(rng_.Uniform(rows.size()));
  size_t j = static_cast<size_t>(rng_.Uniform(rows.size() - 1));
  if (j >= i) ++j;
  partition.set_starter_a(
      Partition::Starter{rows[i].id(), extractor_(rows[i])});
  partition.set_starter_b(
      Partition::Starter{rows[j].id(), extractor_(rows[j])});
}

// ---------------------------------------------------------------------------
// Insert (Algorithm 1).
// ---------------------------------------------------------------------------

Status Cinderella::Insert(Row row) {
  ++catalog_generation_;
  if (catalog_.FindEntity(row.id()).has_value()) {
    return Status::AlreadyExists("entity " + std::to_string(row.id()) +
                                 " already in table");
  }
  const Synopsis synopsis = extractor_(row);
  CINDERELLA_RETURN_IF_ERROR(
      InsertIntoCatalog(std::move(row), synopsis, nullptr, 0));
  ++stats_.inserts;
  return Status::OK();
}

Status Cinderella::InsertBatch(std::vector<Row> rows) {
  if (batch_engine_ != nullptr) {
    return batch_engine_->InsertBatch(std::move(rows));
  }
  return Partitioner::InsertBatch(std::move(rows));
}

Status Cinderella::UpdateBatch(std::vector<Row> rows) {
  if (batch_engine_ != nullptr) {
    return batch_engine_->UpdateBatch(std::move(rows));
  }
  return Partitioner::UpdateBatch(std::move(rows));
}

Status Cinderella::DeleteBatch(const std::vector<EntityId>& entities) {
  if (batch_engine_ != nullptr) {
    return batch_engine_->DeleteBatch(entities);
  }
  return Partitioner::DeleteBatch(entities);
}

Status Cinderella::ApplyMutations(std::vector<Mutation> ops, size_t* applied) {
  if (batch_engine_ != nullptr) {
    return batch_engine_->ApplyMutations(std::move(ops), applied);
  }
  return Partitioner::ApplyMutations(std::move(ops), applied);
}

Status Cinderella::InsertResolved(Row row, const Synopsis& synopsis,
                                  Partition* target) {
  ++catalog_generation_;
  if (catalog_.FindEntity(row.id()).has_value()) {
    return Status::AlreadyExists("entity " + std::to_string(row.id()) +
                                 " already in table");
  }
  CINDERELLA_RETURN_IF_ERROR(
      PlaceRow(std::move(row), synopsis, target, nullptr, 0));
  ++stats_.inserts;
  return Status::OK();
}

Status Cinderella::InsertIntoCatalog(Row row, const Synopsis& synopsis,
                                     std::vector<PartitionId>* restricted,
                                     int depth) {
  const double entity_size =
      static_cast<double>(RowSize(row, config_.measure));
  BestPartition best = FindBestPartition(synopsis, entity_size, restricted);

  // Lines 9-13: no fitting partition -> create one. Only in unrestricted
  // mode; split redistribution picks the less-bad target instead
  // (DESIGN.md deviation 2).
  if (restricted == nullptr &&
      (best.partition == nullptr || best.rating < 0.0)) {
    return PlaceRow(std::move(row), synopsis, nullptr, restricted, depth);
  }
  CINDERELLA_CHECK(best.partition != nullptr);
  return PlaceRow(std::move(row), synopsis, best.partition, restricted, depth);
}

Status Cinderella::PlaceRow(Row row, const Synopsis& synopsis,
                            Partition* target,
                            std::vector<PartitionId>* restricted, int depth) {
  if (target == nullptr) {
    Partition& fresh = catalog_.CreatePartition();
    ++stats_.partitions_created;
    RecordCreated(fresh.id());
    fresh.set_starter_a(Partition::Starter{row.id(), synopsis});
    return AddRowToPartition(fresh, std::move(row), synopsis);
  }

  // A cold target faults back before any row-touching work (starter
  // re-seeding scans rows; splits drain them).
  CINDERELLA_RETURN_IF_ERROR(EnsureHot(*target));

  // Lines 14-24: starter maintenance happens before the capacity check so
  // the incoming entity can seed one of the split halves.
  EnsureStarters(*target);
  UpdateStarters(*target, row.id(), synopsis);

  // Lines 26-33: split when the entity does not fit.
  if (target->Size(config_.measure) + RowSize(row, config_.measure) >
      config_.max_size) {
    // A partition that cannot yield two starters (a single resident whose
    // size already exhausts MAXSIZE under cell/byte measures) cannot be
    // split; the oversized row is admitted instead.
    if (target->entity_count() >= 1) {
      return SplitPartition(target->id(), std::move(row), synopsis, restricted,
                            depth);
    }
  }

  // Line 36: normal insert.
  return AddRowToPartition(*target, std::move(row), synopsis);
}

Status Cinderella::SplitPartition(PartitionId source, Row pending_row,
                                  const Synopsis& pending_synopsis,
                                  std::vector<PartitionId>* outer_targets,
                                  int depth) {
  ++stats_.splits;
  if (depth > 0) ++stats_.split_cascades;

  Partition* src = catalog_.GetPartition(source);
  CINDERELLA_CHECK(src != nullptr);
  if (config_.starter_policy == StarterPolicy::kRandom) {
    PickRandomStarters(*src);
    // The pending row competes for slot B as in the heuristic policies.
    UpdateStarters(*src, pending_row.id(), pending_synopsis);
  }
  CINDERELLA_CHECK(src->starter_a().has_value());
  Partition::Starter starter_a = *src->starter_a();
  Partition::Starter starter_b =
      src->starter_b().has_value()
          ? *src->starter_b()
          : Partition::Starter{pending_row.id(), pending_synopsis};

  Partition& child_a = catalog_.CreatePartition();
  Partition& child_b = catalog_.CreatePartition();
  stats_.partitions_created += 2;
  RecordCreated(child_a.id());
  RecordCreated(child_b.id());

  CINDERELLA_CHECK(starter_a.entity != starter_b.entity);

  bool pending_consumed = false;
  auto seed_child = [&](Partition& child,
                        const Partition::Starter& starter) -> Status {
    if (!pending_consumed && starter.entity == pending_row.id()) {
      pending_consumed = true;
      CINDERELLA_RETURN_IF_ERROR(AddRowToPartition(
          child, std::move(pending_row), pending_synopsis));
    } else {
      StatusOr<Row> moved =
          RemoveRowFromPartition(*src, starter.entity, starter.synopsis);
      CINDERELLA_RETURN_IF_ERROR(moved.status());
      CINDERELLA_RETURN_IF_ERROR(AddRowToPartition(
          child, std::move(moved).value(), starter.synopsis));
    }
    child.set_starter_a(starter);
    return Status::OK();
  };
  CINDERELLA_RETURN_IF_ERROR(seed_child(child_a, starter_a));
  CINDERELLA_RETURN_IF_ERROR(seed_child(child_b, starter_b));

  // Lines 31-33: redistribute the remaining entities with the insert
  // routine restricted to the new partitions. Cascade splits replace a
  // filled child inside `targets`.
  std::vector<PartitionId> targets = {child_a.id(), child_b.id()};
  while (src->entity_count() > 0) {
    const Row& next = src->segment().rows().front();
    const Synopsis next_synopsis = extractor_(next);
    StatusOr<Row> moved =
        RemoveRowFromPartition(*src, next.id(), next_synopsis);
    CINDERELLA_RETURN_IF_ERROR(moved.status());
    CINDERELLA_RETURN_IF_ERROR(InsertIntoCatalog(
        std::move(moved).value(), next_synopsis, &targets, depth + 1));
    ++stats_.entities_redistributed;
  }

  // DESIGN.md deviation 1: Algorithm 1 never adds the triggering entity;
  // we insert it restricted to the split results.
  if (!pending_consumed) {
    CINDERELLA_RETURN_IF_ERROR(InsertIntoCatalog(
        std::move(pending_row), pending_synopsis, &targets, depth + 1));
  }

  DropEmptyPartition(*src);

  // Audit (empty-partition leak): every child is seeded with a starter row
  // and restricted redistribution never moves rows out of `targets` except
  // through a cascade split (which replaces the drained child in `targets`
  // itself), so no child can be empty here — but an empty child escaping
  // into the catalog would be unrateable and violate the "empty partitions
  // are deleted" invariant of Section III forever after. Drop eagerly
  // instead of relying on downstream deletes.
  for (auto it = targets.begin(); it != targets.end();) {
    Partition* child = catalog_.GetPartition(*it);
    CINDERELLA_CHECK(child != nullptr);
    if (child->entity_count() == 0) {
      DropEmptyPartition(*child);
      it = targets.erase(it);
    } else {
      ++it;
    }
  }

  if (outer_targets != nullptr) {
    outer_targets->erase(
        std::remove(outer_targets->begin(), outer_targets->end(), source),
        outer_targets->end());
    outer_targets->insert(outer_targets->end(), targets.begin(),
                          targets.end());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Delete and update.
// ---------------------------------------------------------------------------

Status Cinderella::Delete(EntityId entity) {
  ++catalog_generation_;
  const std::optional<PartitionId> home = catalog_.FindEntity(entity);
  if (!home.has_value()) {
    return Status::NotFound("entity " + std::to_string(entity) +
                            " not in table");
  }
  Partition* partition = catalog_.GetPartition(*home);
  CINDERELLA_CHECK(partition != nullptr);
  CINDERELLA_RETURN_IF_ERROR(EnsureHot(*partition));
  const Row* row = partition->segment().Find(entity);
  CINDERELLA_CHECK(row != nullptr);
  const Synopsis synopsis = extractor_(*row);
  CINDERELLA_RETURN_IF_ERROR(
      RemoveRowFromPartition(*partition, entity, synopsis).status());
  ++stats_.deletes;
  // "Empty partitions will be deleted." (Section III)
  if (partition->entity_count() == 0) {
    DropEmptyPartition(*partition);
    return Status::OK();
  }
  return MaybeDissolve(*partition);
}

Status Cinderella::MaybeDissolve(Partition& partition) {
  if (config_.dissolve_threshold <= 0.0) return Status::OK();
  const double limit =
      config_.dissolve_threshold * static_cast<double>(config_.max_size);
  if (static_cast<double>(partition.Size(config_.measure)) >= limit) {
    return Status::OK();
  }
  ++stats_.partitions_dissolved;
  std::vector<std::pair<Row, Synopsis>> displaced;
  displaced.reserve(partition.entity_count());
  while (partition.entity_count() > 0) {
    const Row& next = partition.segment().rows().front();
    Synopsis synopsis = extractor_(next);
    StatusOr<Row> removed =
        RemoveRowFromPartition(partition, next.id(), synopsis);
    CINDERELLA_RETURN_IF_ERROR(removed.status());
    displaced.emplace_back(std::move(removed).value(), std::move(synopsis));
  }
  DropEmptyPartition(partition);
  for (auto& [row, synopsis] : displaced) {
    ++stats_.entities_reinserted;
    CINDERELLA_RETURN_IF_ERROR(
        InsertIntoCatalog(std::move(row), synopsis, nullptr, 0));
  }
  return Status::OK();
}

Status Cinderella::Update(Row row) {
  const Synopsis new_synopsis = extractor_(row);
  return UpdateResolved(
      std::move(row), new_synopsis,
      [this](const Synopsis& synopsis, double entity_size) {
        const BestPartition best =
            FindBestPartition(synopsis, entity_size, nullptr);
        ResolvedScan scan;
        if (best.partition != nullptr) {
          scan.valid = true;
          scan.id = best.partition->id();
          scan.rating = best.rating;
        }
        return scan;
      });
}

Status Cinderella::UpdateResolved(Row row, const Synopsis& new_synopsis,
                                  const ScanResolver& resolve) {
  ++catalog_generation_;
  const std::optional<PartitionId> home = catalog_.FindEntity(row.id());
  if (!home.has_value()) {
    return Status::NotFound("entity " + std::to_string(row.id()) +
                            " not in table");
  }
  const EntityId entity = row.id();
  Partition* current = catalog_.GetPartition(*home);
  CINDERELLA_CHECK(current != nullptr);
  CINDERELLA_RETURN_IF_ERROR(EnsureHot(*current));
  const Row* old_row = current->segment().Find(row.id());
  CINDERELLA_CHECK(old_row != nullptr);
  const Synopsis old_synopsis = extractor_(*old_row);
  const uint64_t old_size = RowSize(*old_row, config_.measure);
  const uint64_t new_size = RowSize(row, config_.measure);

  ++stats_.updates;

  // "Upon updates, Cinderella also runs the insert routine but without
  // actually inserting." (Section III). The entity is still resident, so
  // its current partition rates with the old row included.
  const ResolvedScan best =
      resolve(new_synopsis, static_cast<double>(new_size));
  const bool stay = best.valid && best.id == *home && best.rating >= 0.0;
  const bool fits =
      current->Size(config_.measure) - old_size + new_size <= config_.max_size;

  if (stay && fits) {
    std::vector<AttributeId> added;
    std::vector<AttributeId> removed;
    CINDERELLA_RETURN_IF_ERROR(current->ReplaceRow(
        std::move(row), old_synopsis, new_synopsis,
        config_.use_synopsis_index ? &added : nullptr,
        config_.use_synopsis_index ? &removed : nullptr));
    if (config_.use_synopsis_index) {
      for (AttributeId id : added) index_.AddPosting(id, current->id());
      for (AttributeId id : removed) index_.RemovePosting(id, current->id());
      if (current->rating_synopsis().Empty()) {
        empty_synopsis_partitions_.insert(current->id());
      } else {
        empty_synopsis_partitions_.erase(current->id());
      }
    }
    RecordTouched(current->id());
    // Offer the updated entity as a split-starter candidate under its new
    // synopsis (ReplaceRow already refreshed it if it *is* a starter).
    UpdateStarters(*current, entity, new_synopsis);
    return Status::OK();
  }

  // Moved: take the row out and re-place it under a fresh scan (which may
  // create a new partition or split).
  ++stats_.updates_moved;
  CINDERELLA_RETURN_IF_ERROR(
      RemoveRowFromPartition(*current, entity, old_synopsis).status());
  if (current->entity_count() == 0) {
    // Drop before re-inserting so the empty husk is never a rating
    // candidate (it would tie at rating 0).
    DropEmptyPartition(*current);
    current = nullptr;
  } else {
    // The moved entity may have been one of the source's split starters;
    // RemoveRow vacated that slot, and an un-repaired pair would let the
    // next split of the source seed a child from a stale singleton. Re-seed
    // eagerly from the survivors (placement-neutral: starters only matter
    // at the next split).
    EnsureStarters(*current);
  }

  const ResolvedScan placement =
      resolve(new_synopsis, static_cast<double>(new_size));
  Partition* target = nullptr;
  if (placement.valid && placement.rating >= 0.0) {
    target = catalog_.GetPartition(placement.id);
    CINDERELLA_CHECK(target != nullptr);
  }
  CINDERELLA_RETURN_IF_ERROR(
      PlaceRow(std::move(row), new_synopsis, target, nullptr, 0));
  // Dissolution runs only after the entity has its new home; the insert
  // may itself have split (and dropped) the source partition.
  Partition* source = catalog_.GetPartition(*home);
  if (source != nullptr && source->entity_count() > 0) {
    return MaybeDissolve(*source);
  }
  return Status::OK();
}

}  // namespace cinderella
