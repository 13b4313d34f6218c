// Property tests: structural invariants of the partitioning under random
// workloads of inserts, deletes, and updates, swept over weights, capacity
// limits, size measures, and the synopsis index (TEST_P).

#include <cstdio>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/cinderella.h"

namespace cinderella {

const char* StarterPolicyName(StarterPolicy policy) {
  switch (policy) {
    case StarterPolicy::kMaxDiffHeuristic:
      return "maxdiff";
    case StarterPolicy::kFirstTwo:
      return "firsttwo";
    case StarterPolicy::kRandom:
      return "random";
  }
  return "unknown";
}

// gtest looks up a printer in the namespace of the printed type, so this
// one cannot live in the anonymous namespace below.
void PrintTo(StarterPolicy policy, std::ostream* os) {
  *os << StarterPolicyName(policy);
}

namespace {

Row RandomRow(EntityId id, Rng& rng, uint32_t attribute_space) {
  Row row(id);
  // Three latent schema families plus noise; occasional empty rows.
  if (!rng.Bernoulli(0.03)) {
    const AttributeId base =
        static_cast<AttributeId>(rng.Uniform(3) * (attribute_space / 3));
    const int core = 2 + static_cast<int>(rng.Uniform(5));
    for (int i = 0; i < core; ++i) {
      row.Set(base + static_cast<AttributeId>(rng.Uniform(attribute_space / 3)),
              Value(static_cast<int64_t>(rng.Uniform(100))));
    }
    if (rng.Bernoulli(0.3)) {
      row.Set(static_cast<AttributeId>(rng.Uniform(attribute_space)),
              Value("noise"));
    }
  }
  return row;
}

/// Checks every structural invariant of a Cinderella instance against a
/// reference model (entity id -> expected row attribute count).
void CheckInvariants(const Cinderella& c,
                     const std::map<EntityId, size_t>& model) {
  const PartitionCatalog& catalog = c.catalog();

  // Entity census: every model entity is bound to a live partition that
  // physically holds its row, and nothing else exists.
  EXPECT_EQ(catalog.entity_count(), model.size());
  size_t seen = 0;
  for (const auto& [entity, attribute_count] : model) {
    const auto home = catalog.FindEntity(entity);
    ASSERT_TRUE(home.has_value()) << "entity " << entity << " unbound";
    const Partition* partition = catalog.GetPartition(*home);
    ASSERT_NE(partition, nullptr);
    const Row* row = partition->segment().Find(entity);
    ASSERT_NE(row, nullptr) << "entity " << entity << " missing from segment";
    EXPECT_EQ(row->attribute_count(), attribute_count);
    ++seen;
  }
  EXPECT_EQ(seen, model.size());

  size_t total_rows = 0;
  catalog.ForEachPartition([&](const Partition& partition) {
    // No empty partitions survive.
    EXPECT_GT(partition.entity_count(), 0u)
        << "empty partition " << partition.id();
    total_rows += partition.entity_count();

    // Capacity: with the entity measure a partition never exceeds B
    // (other measures admit oversized single rows).
    if (c.config().measure == SizeMeasure::kEntityCount) {
      EXPECT_LE(partition.entity_count(), c.config().max_size);
    } else if (partition.entity_count() > 1) {
      EXPECT_LE(partition.Size(c.config().measure), c.config().max_size);
    }

    // Partition synopsis == union of resident attribute synopses.
    Synopsis expected_union;
    uint64_t cells = 0;
    uint64_t bytes = 0;
    for (const Row& row : partition.segment().rows()) {
      expected_union.UnionWith(row.AttributeSynopsis());
      cells += row.attribute_count();
      bytes += row.byte_size();
      // Each resident is bound to this partition.
      EXPECT_EQ(catalog.FindEntity(row.id()),
                std::optional<PartitionId>(partition.id()));
    }
    EXPECT_EQ(partition.attribute_synopsis(), expected_union)
        << "synopsis drift in partition " << partition.id();
    EXPECT_EQ(partition.Size(SizeMeasure::kAttributeCount), cells);
    EXPECT_EQ(partition.Size(SizeMeasure::kByteSize), bytes);

    // Rating synopsis matches in entity-based mode.
    EXPECT_EQ(partition.rating_synopsis(), expected_union);

    // Starters are resident entities with accurate synopses.
    for (const auto& starter : {partition.starter_a(), partition.starter_b()}) {
      if (!starter.has_value()) continue;
      const Row* row = partition.segment().Find(starter->entity);
      ASSERT_NE(row, nullptr) << "starter not resident";
      EXPECT_EQ(starter->synopsis, row->AttributeSynopsis());
    }
    if (partition.starter_a().has_value() &&
        partition.starter_b().has_value()) {
      EXPECT_NE(partition.starter_a()->entity,
                partition.starter_b()->entity);
    }
  });
  EXPECT_EQ(total_rows, model.size());
}

struct PropertyParams {
  double weight;
  uint64_t max_size;
  SizeMeasure measure;
  bool use_index;
};

std::string ParamString(const PropertyParams& params) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "w%02d_B%llu_%s_%s",
                static_cast<int>(params.weight * 10),
                static_cast<unsigned long long>(params.max_size),
                SizeMeasureToString(params.measure),
                params.use_index ? "indexed" : "scan");
  return buf;
}

std::string ParamName(const testing::TestParamInfo<PropertyParams>& info) {
  return ParamString(info.param);
}

// Without a printer gtest dumps the parameter's bytes, and CTest carries
// the dump in every test name.
void PrintTo(const PropertyParams& params, std::ostream* os) {
  *os << ParamString(params);
}

class CinderellaPropertyTest : public testing::TestWithParam<PropertyParams> {
};

TEST_P(CinderellaPropertyTest, InvariantsUnderRandomWorkload) {
  const PropertyParams& params = GetParam();
  CinderellaConfig config;
  config.weight = params.weight;
  config.max_size = params.max_size;
  config.measure = params.measure;
  config.use_synopsis_index = params.use_index;
  auto created = Cinderella::Create(config);
  ASSERT_TRUE(created.ok());
  auto c = std::move(created).value();

  Rng rng(1234);
  std::map<EntityId, size_t> model;
  EntityId next_id = 0;
  std::vector<EntityId> live;

  for (int op = 0; op < 1500; ++op) {
    const double dice = rng.UniformDouble();
    if (dice < 0.70 || live.empty()) {
      Row row = RandomRow(next_id++, rng, 30);
      model[row.id()] = row.attribute_count();
      live.push_back(row.id());
      ASSERT_TRUE(c->Insert(std::move(row)).ok());
    } else if (dice < 0.85) {
      const size_t pick = static_cast<size_t>(rng.Uniform(live.size()));
      const EntityId victim = live[pick];
      live[pick] = live.back();
      live.pop_back();
      model.erase(victim);
      ASSERT_TRUE(c->Delete(victim).ok());
    } else {
      const EntityId target =
          live[static_cast<size_t>(rng.Uniform(live.size()))];
      Row row = RandomRow(target, rng, 30);
      model[target] = row.attribute_count();
      ASSERT_TRUE(c->Update(std::move(row)).ok());
    }
    if (op % 250 == 249) CheckInvariants(*c, model);
  }
  CheckInvariants(*c, model);
  // The library's own deep self-check agrees with the test harness.
  EXPECT_TRUE(c->VerifyIntegrity().ok()) << c->VerifyIntegrity().ToString();

  // Weight 0 additionally guarantees perfectly homogeneous partitions
  // (Section V: "In the extreme case of w = 0 all created partitions are
  // completely homogeneous").
  if (params.weight == 0.0) {
    c->catalog().ForEachPartition([&](const Partition& partition) {
      const Synopsis& schema = partition.attribute_synopsis();
      for (const Row& row : partition.segment().rows()) {
        EXPECT_EQ(row.AttributeSynopsis(), schema);
      }
      EXPECT_DOUBLE_EQ(partition.Sparseness(), 0.0);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CinderellaPropertyTest,
    testing::Values(
        PropertyParams{0.0, 50, SizeMeasure::kEntityCount, false},
        PropertyParams{0.2, 50, SizeMeasure::kEntityCount, false},
        PropertyParams{0.5, 50, SizeMeasure::kEntityCount, false},
        PropertyParams{0.8, 50, SizeMeasure::kEntityCount, false},
        PropertyParams{1.0, 50, SizeMeasure::kEntityCount, false},
        PropertyParams{0.5, 5, SizeMeasure::kEntityCount, false},
        PropertyParams{0.5, 1, SizeMeasure::kEntityCount, false},
        PropertyParams{0.5, 400, SizeMeasure::kAttributeCount, false},
        PropertyParams{0.5, 4000, SizeMeasure::kByteSize, false},
        PropertyParams{0.2, 50, SizeMeasure::kEntityCount, true},
        PropertyParams{0.5, 5, SizeMeasure::kEntityCount, true},
        PropertyParams{0.5, 400, SizeMeasure::kAttributeCount, true}),
    ParamName);

// The synopsis index must be an exact optimization: identical partitioning
// decisions as the full catalog scan, operation by operation.
class IndexEquivalenceTest : public testing::TestWithParam<double> {};

TEST_P(IndexEquivalenceTest, IndexedMatchesScan) {
  const double weight = GetParam();
  CinderellaConfig scan_config;
  scan_config.weight = weight;
  scan_config.max_size = 20;
  CinderellaConfig indexed_config = scan_config;
  indexed_config.use_synopsis_index = true;

  auto scan = std::move(Cinderella::Create(scan_config)).value();
  auto indexed = std::move(Cinderella::Create(indexed_config)).value();

  Rng rng(777);
  EntityId next_id = 0;
  std::vector<EntityId> live;
  for (int op = 0; op < 1200; ++op) {
    const double dice = rng.UniformDouble();
    if (dice < 0.75 || live.empty()) {
      Row row = RandomRow(next_id++, rng, 24);
      live.push_back(row.id());
      Row copy = row;
      ASSERT_TRUE(scan->Insert(std::move(copy)).ok());
      ASSERT_TRUE(indexed->Insert(std::move(row)).ok());
    } else if (dice < 0.9) {
      const size_t pick = static_cast<size_t>(rng.Uniform(live.size()));
      const EntityId victim = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(scan->Delete(victim).ok());
      ASSERT_TRUE(indexed->Delete(victim).ok());
    } else {
      const EntityId target =
          live[static_cast<size_t>(rng.Uniform(live.size()))];
      Row row = RandomRow(target, rng, 24);
      Row copy = row;
      ASSERT_TRUE(scan->Update(std::move(copy)).ok());
      ASSERT_TRUE(indexed->Update(std::move(row)).ok());
    }
  }

  // Same co-location structure: group rows by partition and compare the
  // resulting set of member sets.
  auto grouping = [](const Cinderella& c) {
    std::set<std::set<EntityId>> groups;
    c.catalog().ForEachPartition([&](const Partition& p) {
      std::set<EntityId> members;
      for (const Row& row : p.segment().rows()) members.insert(row.id());
      groups.insert(std::move(members));
    });
    return groups;
  };
  EXPECT_EQ(grouping(*scan), grouping(*indexed));
  EXPECT_EQ(scan->catalog().partition_count(),
            indexed->catalog().partition_count());
  EXPECT_EQ(scan->stats().splits, indexed->stats().splits);
}

INSTANTIATE_TEST_SUITE_P(Weights, IndexEquivalenceTest,
                         testing::Values(0.0, 0.2, 0.5, 0.8, 1.0),
                         [](const testing::TestParamInfo<double>& info) {
                           // snprintf instead of string concatenation: GCC
                           // 12's Release-mode string inlining misreports
                           // the "w" + to_string(...) form as
                           // -Werror=restrict.
                           char buf[16];
                           std::snprintf(buf, sizeof(buf), "w%02d",
                                         static_cast<int>(info.param * 10));
                           return std::string(buf);
                         });

// Starter-policy sweep: all policies must preserve the structural
// invariants (quality differs; that is the ablation bench's subject).
class StarterPolicyTest : public testing::TestWithParam<StarterPolicy> {};

TEST_P(StarterPolicyTest, InvariantsHold) {
  CinderellaConfig config;
  config.weight = 0.5;
  config.max_size = 10;
  config.starter_policy = GetParam();
  auto c = std::move(Cinderella::Create(config)).value();
  Rng rng(55);
  std::map<EntityId, size_t> model;
  for (EntityId id = 0; id < 600; ++id) {
    Row row = RandomRow(id, rng, 30);
    model[id] = row.attribute_count();
    ASSERT_TRUE(c->Insert(std::move(row)).ok());
  }
  CheckInvariants(*c, model);
  EXPECT_GT(c->stats().splits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, StarterPolicyTest,
    testing::Values(StarterPolicy::kMaxDiffHeuristic, StarterPolicy::kFirstTwo,
                    StarterPolicy::kRandom),
    [](const testing::TestParamInfo<StarterPolicy>& info) {
      return std::string(StarterPolicyName(info.param));
    });

}  // namespace
}  // namespace cinderella
