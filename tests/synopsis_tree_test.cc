// Tests for the hierarchical synopsis-tree catalog (src/synopsis/
// synopsis_tree.h): structural invariants under upsert/remove/collapse
// churn, COW snapshot isolation, the empty-root growth regression, and —
// the property that justifies the whole structure — bit-identical
// placements AND query results between tree-enabled and flat
// configurations across shard counts, window sizes, and split/merge/
// evict churn.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cinderella.h"
#include "ingest/mutation_pipeline.h"
#include "mvcc/versioned_table.h"
#include "query/estimator.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "synopsis/synopsis_tree.h"
#include "workload/dbpedia_generator.h"

namespace cinderella {
namespace {

Synopsis MakeSynopsis(std::initializer_list<AttributeId> attrs) {
  Synopsis synopsis;
  for (AttributeId a : attrs) synopsis.Add(a);
  return synopsis;
}

std::vector<uint64_t> Candidates(SynopsisTree& tree, const Synopsis& probe) {
  std::vector<uint64_t> keys;
  const std::vector<uint64_t>& words = probe.words();
  tree.Share().ForEachCandidate(words.data(), words.size(),
                                [&](uint64_t key) { keys.push_back(key); });
  return keys;
}

// -- Structural unit tests ----------------------------------------------------

TEST(SynopsisTreeTest, UpsertRemoveRoundTrip) {
  SynopsisTree tree(4);
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error)) << error;
  EXPECT_EQ(tree.live_count(), 0u);
  EXPECT_EQ(tree.root_union(), nullptr);

  tree.Upsert(0, MakeSynopsis({1}));
  tree.Upsert(5, MakeSynopsis({2, 64}));
  tree.Upsert(17, MakeSynopsis({3}));
  ASSERT_TRUE(tree.CheckInvariants(&error)) << error;
  EXPECT_EQ(tree.live_count(), 3u);
  ASSERT_NE(tree.root_union(), nullptr);
  EXPECT_TRUE(tree.root_union()->Contains(1));
  EXPECT_TRUE(tree.root_union()->Contains(64));
  EXPECT_TRUE(tree.root_union()->Contains(3));

  // Leaves come back in ascending key order with their exact sets.
  std::vector<uint64_t> keys;
  tree.Share().ForEachLeaf([&](uint64_t key, const Synopsis& set) {
    keys.push_back(key);
    if (key == 5) {
      EXPECT_TRUE(set.Contains(64));
    }
  });
  EXPECT_EQ(keys, (std::vector<uint64_t>{0, 5, 17}));

  tree.Remove(5);
  ASSERT_TRUE(tree.CheckInvariants(&error)) << error;
  EXPECT_EQ(tree.live_count(), 2u);
  EXPECT_FALSE(tree.root_union()->Contains(64));

  tree.Remove(0);
  tree.Remove(17);
  ASSERT_TRUE(tree.CheckInvariants(&error)) << error;
  EXPECT_EQ(tree.live_count(), 0u);
  EXPECT_EQ(tree.depth(), 0u);
}

TEST(SynopsisTreeTest, CandidateDescentPrunesDisjointSubtrees) {
  SynopsisTree tree(2);  // Minimum fanout: deepest tree per key count.
  // Keys 0..31 in two attribute families so whole subtrees are disjoint
  // from a probe: even keys carry attribute 10, odd keys attribute 200.
  for (uint64_t key = 0; key < 32; ++key) {
    tree.Upsert(key, MakeSynopsis({key % 2 == 0 ? AttributeId{10}
                                                : AttributeId{200}}));
  }
  std::string error;
  ASSERT_TRUE(tree.CheckInvariants(&error)) << error;

  std::vector<uint64_t> evens = Candidates(tree, MakeSynopsis({10}));
  ASSERT_EQ(evens.size(), 16u);
  for (size_t i = 0; i < evens.size(); ++i) {
    EXPECT_EQ(evens[i], 2 * i);  // Ascending, exactly the even keys.
  }
  EXPECT_TRUE(Candidates(tree, MakeSynopsis({77})).empty());
  // Empty probe matches nothing (the flat Intersects convention).
  EXPECT_TRUE(Candidates(tree, Synopsis()).empty());
}

TEST(SynopsisTreeTest, ShrinkingUpsertReOrsStaleBitsAway) {
  SynopsisTree tree(4);
  tree.Upsert(3, MakeSynopsis({1, 2, 3}));
  tree.Upsert(9, MakeSynopsis({4}));
  ASSERT_TRUE(tree.root_union()->Contains(3));

  // Replace key 3 with a shrunk set: ancestors must drop bit 3 (the
  // dirty re-OR path), not keep it conservatively.
  tree.Upsert(3, MakeSynopsis({1}));
  std::string error;
  ASSERT_TRUE(tree.CheckInvariants(&error)) << error;
  EXPECT_FALSE(tree.root_union()->Contains(3));
  EXPECT_TRUE(tree.root_union()->Contains(1));
  EXPECT_TRUE(tree.root_union()->Contains(4));
  EXPECT_GT(tree.stats().node_reors, 0u);
}

TEST(SynopsisTreeTest, EmptyRootGrowsByHeightWithoutZeroLiveChild) {
  // Regression: the first key after an empty state may be far beyond the
  // root's span (partition ids grow monotonically, so a reorganize drain
  // restarts the tree at a high id). Growth must not wrap the still-empty
  // root as child 0 — that pins a zero-live subtree no Remove collapses.
  SynopsisTree tree(4);
  tree.Upsert(1000, MakeSynopsis({1}));
  std::string error;
  ASSERT_TRUE(tree.CheckInvariants(&error)) << error;
  EXPECT_EQ(tree.live_count(), 1u);

  // Same shape after a drain-to-empty followed by a high reinsert.
  tree.Remove(1000);
  EXPECT_EQ(tree.depth(), 0u);
  tree.Upsert(5000, MakeSynopsis({2}));
  ASSERT_TRUE(tree.CheckInvariants(&error)) << error;
  EXPECT_EQ(Candidates(tree, MakeSynopsis({2})),
            (std::vector<uint64_t>{5000}));
}

TEST(SynopsisTreeTest, RemoveCollapsesEmptiedSubtrees) {
  SynopsisTree tree(4);
  for (uint64_t key = 0; key < 64; ++key) {
    tree.Upsert(key, MakeSynopsis({static_cast<AttributeId>(key % 7)}));
  }
  // Empty the subtree covering [16, 32) — the sweep a split cascade's
  // eager empty-partition drop performs. Every ancestor on the way up
  // must collapse, never leaving a zero-leaf subtree the descent visits.
  for (uint64_t key = 16; key < 32; ++key) tree.Remove(key);
  std::string error;
  ASSERT_TRUE(tree.CheckInvariants(&error)) << error;
  EXPECT_EQ(tree.live_count(), 48u);
  EXPECT_GT(tree.stats().collapses, 0u);
  std::vector<uint64_t> keys;
  tree.Share().ForEachLeaf(
      [&](uint64_t key, const Synopsis&) { keys.push_back(key); });
  for (uint64_t key : keys) {
    EXPECT_TRUE(key < 16 || key >= 32) << key;
  }
}

TEST(SynopsisTreeTest, SnapshotsAreImmutableUnderLaterMutations) {
  SynopsisTree tree(4);
  tree.Upsert(2, MakeSynopsis({5}));
  tree.Upsert(7, MakeSynopsis({9}));
  const SynopsisTreeSnapshot frozen = tree.Share();
  ASSERT_TRUE(frozen.valid());
  EXPECT_EQ(frozen.live(), 2u);

  // Mutate every leaf the snapshot references plus the spine above them.
  tree.Upsert(2, MakeSynopsis({100}));
  tree.Remove(7);
  tree.Upsert(55, MakeSynopsis({101}));
  EXPECT_GT(tree.stats().nodes_copied, 0u);

  // The frozen image still shows the old world, bit for bit.
  std::map<uint64_t, bool> seen;
  frozen.ForEachLeaf([&](uint64_t key, const Synopsis& set) {
    seen[key] = true;
    if (key == 2) {
      EXPECT_TRUE(set.Contains(5));
      EXPECT_FALSE(set.Contains(100));
    }
  });
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[2]);
  EXPECT_TRUE(seen[7]);
  ASSERT_NE(frozen.root_union(), nullptr);
  EXPECT_TRUE(frozen.root_union()->Contains(9));
  EXPECT_FALSE(frozen.root_union()->Contains(101));

  // And the live tree moved on.
  std::string error;
  ASSERT_TRUE(tree.CheckInvariants(&error)) << error;
  EXPECT_TRUE(tree.root_union()->Contains(100));
  EXPECT_FALSE(tree.root_union()->Contains(9));
}

TEST(SynopsisTreeTest, IdenticalUpsertIsANoOpWithoutCloning) {
  SynopsisTree tree(4);
  tree.Upsert(3, MakeSynopsis({1, 2}));
  const SynopsisTreeSnapshot frozen = tree.Share();
  const uint64_t copied_before = tree.stats().nodes_copied;
  tree.Upsert(3, MakeSynopsis({1, 2}));  // Identical replacement.
  EXPECT_EQ(tree.stats().nodes_copied, copied_before);
  (void)frozen;
}

// -- Randomized equivalence property ------------------------------------------

std::vector<Row> TestRows(size_t n, AttributeDictionary* dictionary,
                          uint64_t seed = 42) {
  DbpediaConfig config;
  config.num_entities = n;
  config.seed = seed;
  DbpediaGenerator generator(config, dictionary);
  return generator.Generate();
}

std::map<PartitionId, std::vector<EntityId>> Fingerprint(
    const PartitionCatalog& catalog) {
  std::map<PartitionId, std::vector<EntityId>> fingerprint;
  catalog.ForEachPartition([&](const Partition& partition) {
    std::vector<EntityId>& residents = fingerprint[partition.id()];
    for (const Row& row : partition.segment().rows()) {
      residents.push_back(row.id());
    }
    std::sort(residents.begin(), residents.end());
  });
  return fingerprint;
}

std::vector<Row> MakeUpdates(const std::vector<Row>& base, size_t count,
                             uint64_t seed) {
  std::vector<Row> updates;
  uint64_t state = seed;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (size_t i = 0; i < count; ++i) {
    const Row& victim = base[next() % base.size()];
    Row row(victim.id());
    const size_t attrs = 2 + next() % 6;
    for (size_t a = 0; a < attrs; ++a) {
      row.Set(static_cast<AttributeId>(next() % 40),
              Value(static_cast<int64_t>(next() % 1000)));
    }
    updates.push_back(std::move(row));
  }
  return updates;
}

CinderellaConfig ChurnConfig(bool tree) {
  CinderellaConfig config;
  config.weight = 0.3;
  config.max_size = 12;  // Small partitions: splits and dissolves happen.
  config.dissolve_threshold = 0.25;
  config.use_synopsis_tree = tree;
  return config;
}

void ExpectSameQueryResult(const QueryResult& a, const QueryResult& b) {
  EXPECT_EQ(a.metrics.partitions_total, b.metrics.partitions_total);
  EXPECT_EQ(a.metrics.partitions_scanned, b.metrics.partitions_scanned);
  EXPECT_EQ(a.metrics.partitions_pruned, b.metrics.partitions_pruned);
  EXPECT_EQ(a.metrics.rows_scanned, b.metrics.rows_scanned);
  EXPECT_EQ(a.metrics.rows_matched, b.metrics.rows_matched);
  EXPECT_EQ(a.metrics.cells_read, b.metrics.cells_read);
  EXPECT_EQ(a.metrics.bytes_read, b.metrics.bytes_read);
  EXPECT_EQ(a.cells_materialized, b.cells_materialized);
  EXPECT_DOUBLE_EQ(a.selectivity, b.selectivity);
}

struct TreeParam {
  int shards;
  size_t window;
};

// Without this, gtest prints the parameter as raw bytes, including the
// uninitialized padding after `shards`, so the listed test names change
// from run to run.
void PrintTo(const TreeParam& param, std::ostream* os) {
  *os << "shards" << param.shards << "_window" << param.window;
}

class TreeEquivalenceTest : public testing::TestWithParam<TreeParam> {};

// A tree-enabled table and a flat table fed the same mutation stream
// (inserts, updates, deletes, reorganize — i.e. split/merge/evict churn)
// are indistinguishable in placements, stats, query results, scan
// metrics, and estimator outputs; only the number of partitions the
// query path *inspects* differs.
TEST_P(TreeEquivalenceTest, TreeMatchesFlatUnderChurn) {
  const TreeParam param = GetParam();
  AttributeDictionary dictionary;
  const std::vector<Row> base = TestRows(300, &dictionary);
  const std::vector<Row> updates = MakeUpdates(base, 150, 11);
  std::vector<EntityId> deletions;
  for (size_t i = 0; i < base.size(); i += 7) deletions.push_back(base[i].id());

  MutationPipelineOptions options;
  options.shards = param.shards;
  options.window = param.window;

  auto run = [&](bool tree) {
    auto table = std::move(Cinderella::Create(ChurnConfig(tree))).value();
    const std::unique_ptr<MutationPipeline> engine =
        AttachMutationPipeline(table.get(), options);
    EXPECT_TRUE(table->InsertBatch(base).ok());
    EXPECT_TRUE(table->UpdateBatch(updates).ok());
    EXPECT_TRUE(table->DeleteBatch(deletions).ok());
    EXPECT_TRUE(table->Reorganize().ok());
    auto integrity = table->VerifyIntegrity();
    EXPECT_TRUE(integrity.ok()) << integrity.ToString();
    return table;
  };
  const auto flat = run(false);
  const auto treed = run(true);

  // Placements are bit-identical: same partitions, same residents, same
  // creation order, same split/dissolve/move history.
  EXPECT_EQ(Fingerprint(treed->catalog()), Fingerprint(flat->catalog()));
  EXPECT_EQ(treed->stats().splits, flat->stats().splits);
  EXPECT_EQ(treed->stats().updates_moved, flat->stats().updates_moved);
  EXPECT_EQ(treed->stats().partitions_dissolved,
            flat->stats().partitions_dissolved);
  EXPECT_EQ(treed->stats().partitions_created, flat->stats().partitions_created);

  // Query results and metrics over published MVCC views are identical —
  // the tree-pruned executor path only skips partitions the flat path
  // would have pruned one-by-one.
  VersionedTable flat_view(flat.get(), nullptr);
  VersionedTable tree_view(treed.get(), nullptr);
  const VersionedTable::Snapshot flat_snap = flat_view.snapshot();
  const VersionedTable::Snapshot tree_snap = tree_view.snapshot();
  EXPECT_FALSE(flat_snap.view().tree().valid());
  EXPECT_TRUE(tree_snap.view().tree().valid());

  for (AttributeId probe : {0, 3, 11, 25, 39, 200}) {
    const Query query({probe});
    QueryExecutor flat_exec(flat_snap.view());
    QueryExecutor tree_exec(tree_snap.view());
    ExpectSameQueryResult(tree_exec.Execute(query), flat_exec.Execute(query));

    std::vector<RowView> flat_rows;
    std::vector<RowView> tree_rows;
    ExpectSameQueryResult(tree_exec.ExecuteGather(query, &tree_rows),
                          flat_exec.ExecuteGather(query, &flat_rows));
    ASSERT_EQ(tree_rows.size(), flat_rows.size());
    for (size_t i = 0; i < tree_rows.size(); ++i) {
      EXPECT_EQ(tree_rows[i].id(), flat_rows[i].id());
    }

    const PredicatePtr predicate = IsNotNull(probe);
    ExpectSameQueryResult(tree_exec.ExecutePredicate(*predicate),
                          flat_exec.ExecutePredicate(*predicate));

    // Estimator parity over the same views.
    const SelectivityEstimate flat_est =
        EstimateSelectivity(flat_snap.view(), query);
    const SelectivityEstimate tree_est =
        EstimateSelectivity(tree_snap.view(), query);
    EXPECT_EQ(tree_est.table_entities, flat_est.table_entities);
    EXPECT_EQ(tree_est.partitions_scanned, flat_est.partitions_scanned);
    EXPECT_EQ(tree_est.partitions_pruned, flat_est.partitions_pruned);
    EXPECT_EQ(tree_est.rows_lower_bound, flat_est.rows_lower_bound);
    EXPECT_EQ(tree_est.rows_upper_bound, flat_est.rows_upper_bound);
    EXPECT_DOUBLE_EQ(tree_est.rows_estimate, flat_est.rows_estimate);
    EXPECT_EQ(ExplainQuery(tree_snap.view(), query),
              ExplainQuery(flat_snap.view(), query));
  }

  // Satellite 1: the node digest (UnionSynopsis) must agree between the
  // tree-root fast path and the flat OR.
  EXPECT_EQ(tree_snap.view().UnionSynopsis(), flat_snap.view().UnionSynopsis());
}

INSTANTIATE_TEST_SUITE_P(ShardsAndWindows, TreeEquivalenceTest,
                         testing::Values(TreeParam{1, 1}, TreeParam{1, 16},
                                         TreeParam{4, 1}, TreeParam{4, 16}));

// Tree-pruned and flat scans must agree when an observer collects
// per-partition touches: the tree path reinstates a pruned touch for
// every skipped partition, in the same ascending order.
TEST(TreeEquivalenceTest, ObserverSeesIdenticalTouchStreams) {
  struct Recorder : ScanObserver {
    std::vector<PartitionTouch> touches;
    void OnScan(const Synopsis&,
                const std::vector<PartitionTouch>& t) override {
      touches = t;
    }
  };
  AttributeDictionary dictionary;
  const std::vector<Row> base = TestRows(250, &dictionary, 5);
  auto run = [&](bool tree, Recorder* recorder) {
    auto table = std::move(Cinderella::Create(ChurnConfig(tree))).value();
    for (const Row& row : base) EXPECT_TRUE(table->Insert(row).ok());
    VersionedTable versioned(table.get(), nullptr);
    const VersionedTable::Snapshot snap = versioned.snapshot();
    QueryExecutor executor(snap.view());
    executor.set_observer(recorder);
    executor.Execute(Query({7}));
  };
  Recorder flat;
  Recorder treed;
  run(false, &flat);
  run(true, &treed);
  ASSERT_EQ(treed.touches.size(), flat.touches.size());
  for (size_t i = 0; i < flat.touches.size(); ++i) {
    EXPECT_EQ(treed.touches[i].partition, flat.touches[i].partition);
    EXPECT_EQ(treed.touches[i].scanned, flat.touches[i].scanned);
    EXPECT_EQ(treed.touches[i].rows_scanned, flat.touches[i].rows_scanned);
    EXPECT_EQ(treed.touches[i].rows_matched, flat.touches[i].rows_matched);
  }
}

// Churn that empties whole partitions (split sweeps and DeleteBatch
// drains) must leave the published query tree with exactly one leaf per
// partition and no uncollapsed empty subtree.
TEST(TreeChurnTest, SplitAndDrainChurnKeepsTreeExact) {
  AttributeDictionary dictionary;
  const std::vector<Row> base = TestRows(400, &dictionary, 9);
  VersionedTable::Options options;
  options.batched_ingest = false;
  VersionedTable table(
      std::move(Cinderella::Create(ChurnConfig(true))).value(), options);
  for (const Row& row : base) ASSERT_TRUE(table.Insert(row).ok());

  // Delete in id-striped waves so partitions drain at different times,
  // reinserting some victims between waves (fresh partition ids force
  // root growth from non-empty and empty states alike).
  for (int wave = 0; wave < 4; ++wave) {
    std::vector<EntityId> victims;
    for (size_t i = static_cast<size_t>(wave); i < base.size(); i += 4) {
      victims.push_back(base[i].id());
    }
    ASSERT_TRUE(table.DeleteBatch(victims).ok());
    auto integrity = table.partitioner().VerifyIntegrity();
    ASSERT_TRUE(integrity.ok()) << integrity.ToString();
    EXPECT_EQ(table.memory_stats().tree.live_leaves, table.partition_count());
    if (wave < 3) {
      for (size_t i = static_cast<size_t>(wave); i < base.size(); i += 8) {
        ASSERT_TRUE(table.Insert(base[i]).ok());
      }
    }
  }
  // Fully drained: the tree must be empty too.
  std::vector<EntityId> rest;
  table.partitioner().catalog().ForEachPartition(
      [&](const Partition& partition) {
        for (const Row& row : partition.segment().rows()) {
          rest.push_back(row.id());
        }
      });
  if (!rest.empty()) {
    ASSERT_TRUE(table.DeleteBatch(rest).ok());
  }
  EXPECT_EQ(table.partition_count(), 0u);
  const VersionedTable::MemoryStats drained = table.memory_stats();
  EXPECT_EQ(drained.tree.live_leaves, 0u);
  EXPECT_EQ(drained.tree.depth, 0u);
  EXPECT_GT(drained.tree.collapses, 0u);

  // And the tree restarts cleanly at high partition ids (empty-root
  // growth regression, end to end).
  for (size_t i = 0; i < 50; ++i) ASSERT_TRUE(table.Insert(base[i]).ok());
  auto integrity = table.partitioner().VerifyIntegrity();
  ASSERT_TRUE(integrity.ok()) << integrity.ToString();
  EXPECT_EQ(table.memory_stats().tree.live_leaves, table.partition_count());
}

// Concurrent readers descend pinned view trees while the writer keeps
// publishing — the COW contract under TSan. Readers must always see a
// self-consistent frozen tree whose candidates match the view's own
// partitions.
TEST(TreeConcurrencyTest, ReadersDescendFrozenTreesDuringWrites) {
  AttributeDictionary dictionary;
  const std::vector<Row> rows = TestRows(600, &dictionary, 13);
  CinderellaConfig config = ChurnConfig(true);
  auto created = Cinderella::Create(config);
  ASSERT_TRUE(created.ok());
  VersionedTable table(std::move(created).value());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> scans{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const VersionedTable::Snapshot snap = table.snapshot();
      const CatalogView& view = snap.view();
      if (!view.tree().valid()) continue;
      // Tree candidates must be a subset of the view's partitions, and
      // every non-candidate must really miss the probe.
      const Synopsis probe = MakeSynopsis({3});
      const std::vector<uint64_t>& words = probe.words();
      size_t candidates = 0;
      view.tree().ForEachCandidate(
          words.data(), words.size(), [&](uint64_t key) {
            ++candidates;
            bool found = false;
            for (const PartitionVersion* version : view.partitions()) {
              if (version->id() == key) {
                found = true;
                break;
              }
            }
            EXPECT_TRUE(found) << "candidate " << key << " not in view";
          });
      EXPECT_LE(candidates, view.partition_count());
      QueryExecutor executor(view);
      executor.Execute(Query({3}));
      scans.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const size_t kChunk = 60;
  for (size_t at = 0; at < rows.size(); at += kChunk) {
    const size_t end = std::min(rows.size(), at + kChunk);
    ASSERT_TRUE(
        table.InsertBatch({rows.begin() + static_cast<ptrdiff_t>(at),
                           rows.begin() + static_cast<ptrdiff_t>(end)})
            .ok());
  }
  std::vector<EntityId> victims;
  for (size_t i = 0; i < rows.size(); i += 3) victims.push_back(rows[i].id());
  ASSERT_TRUE(table.DeleteBatch(victims).ok());
  ASSERT_TRUE(table.Reorganize().ok());
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(scans.load(), 0u);

  const VersionedTable::MemoryStats stats = table.memory_stats();
  EXPECT_TRUE(stats.tree.enabled);
  EXPECT_EQ(stats.tree.live_leaves, table.partition_count());
}

}  // namespace
}  // namespace cinderella
