#include "core/synopsis_index.h"

#include "common/logging.h"

namespace cinderella {

void SynopsisIndex::AddPosting(AttributeId id, PartitionId partition) {
  if (id >= lists_.size()) lists_.resize(id + 1);
  if (partition >= partition_ids_.size()) {
    partition_ids_.resize(partition + 1);
    candidate_seen_.resize(partition + 1, 0);
  }
  CINDERELLA_DCHECK(!partition_ids_[partition].Contains(id));
  lists_[id].partitions.push_back(partition);
  partition_ids_[partition].Add(id);
}

void SynopsisIndex::RemovePosting(AttributeId id, PartitionId partition) {
  CINDERELLA_DCHECK(id < lists_.size());
  CINDERELLA_DCHECK(partition < partition_ids_.size());
  CINDERELLA_DCHECK(partition_ids_[partition].Contains(id));
  partition_ids_[partition].Remove(id);
  PostingList& list = lists_[id];
  ++list.dead;
  if (list.dead * 2 > list.partitions.size()) Compact(id);
}

bool SynopsisIndex::IsLive(AttributeId id, PartitionId partition) const {
  return partition < partition_ids_.size() &&
         partition_ids_[partition].Contains(id);
}

void SynopsisIndex::Compact(AttributeId id) {
  PostingList& list = lists_[id];
  std::vector<PartitionId> live;
  live.reserve(list.partitions.size() - list.dead);
  for (PartitionId partition : list.partitions) {
    if (IsLive(id, partition)) live.push_back(partition);
  }
  list.partitions = std::move(live);
  list.dead = 0;
}

void SynopsisIndex::CollectCandidates(const Synopsis& ids,
                                      std::vector<PartitionId>* candidates) {
  const size_t first = candidates->size();
  for (AttributeId id : ids.ToIds()) {
    if (id >= lists_.size()) continue;
    for (PartitionId partition : lists_[id].partitions) {
      // The byte test first: a partition already collected through an
      // earlier id skips the liveness lookup.
      if (candidate_seen_[partition]) continue;
      if (!IsLive(id, partition)) continue;
      candidate_seen_[partition] = 1;
      candidates->push_back(partition);
    }
  }
  for (size_t i = first; i < candidates->size(); ++i) {
    candidate_seen_[(*candidates)[i]] = 0;
  }
}

size_t SynopsisIndex::live_posting_count() const {
  size_t total = 0;
  for (const Synopsis& ids : partition_ids_) total += ids.Count();
  return total;
}

}  // namespace cinderella
