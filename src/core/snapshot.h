#ifndef CINDERELLA_CORE_SNAPSHOT_H_
#define CINDERELLA_CORE_SNAPSHOT_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/cinderella.h"
#include "synopsis/attribute_dictionary.h"

namespace cinderella {

/// A restored table: the partitioner with its partitioning intact plus
/// the attribute dictionary it was saved with.
struct RestoredSnapshot {
  std::unique_ptr<Cinderella> partitioner;
  std::unique_ptr<AttributeDictionary> dictionary;
};

/// Serializes a Cinderella-partitioned table — configuration, workload
/// (if workload-based), attribute dictionary, and every partition's rows
/// and split starters — into a binary snapshot.
///
/// The format is versioned and self-describing but not cross-endian
/// (little-endian hosts only, like most embedded-store formats). Version 2
/// persists each partition's split starters (entity ids; their synopses
/// follow from the rows), so a restored table splits exactly as the saved
/// one would have. The kRandom starter policy's RNG state is not
/// persisted: after a restore that policy draws a different sequence.
Status SaveSnapshot(const Cinderella& partitioner,
                    const AttributeDictionary& dictionary, std::ostream& out);

/// File-path convenience overload.
Status SaveSnapshotToFile(const Cinderella& partitioner,
                          const AttributeDictionary& dictionary,
                          const std::string& path);

/// Restores a snapshot written by SaveSnapshot. The partitioning (which
/// entity lives in which partition), each partition's row order and its
/// split starters are reproduced exactly; partition ids are re-densified
/// in save order. A starter that is not a row of its partition fails the
/// load. Version-1 snapshots (no starters) still load; their starters are
/// re-seeded lazily on the next structural operation.
StatusOr<RestoredSnapshot> LoadSnapshot(std::istream& in);

/// File-path convenience overload.
StatusOr<RestoredSnapshot> LoadSnapshotFromFile(const std::string& path);

}  // namespace cinderella

#endif  // CINDERELLA_CORE_SNAPSHOT_H_
