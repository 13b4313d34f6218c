// The three workloads of the end-to-end benchmark and the pieces they
// share: pinned engine knobs, seeded DBpedia-shaped input, row hashing.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "ledger.h"
#include "storage/row.h"
#include "synopsis/attribute_dictionary.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the timed phase: each workload runs a fixed amount of work
  /// (a function of the seed and of this value only) that lasts about
  /// this long on the reference host, so parent and change always do
  /// identical work and traced counters repeat exactly.
  int seconds = 10;
  bool trace = false;
  /// Data directory inside the checkout; the workload owns it.
  std::string data_dir;
};

/// Setups per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 3;

/// Engine configuration with every knob set explicitly, so no value is
/// resolved from the environment or the hardware.
cinderella::CinderellaConfig PinnedConfig(double weight, uint64_t max_size);

/// Insert shards (and batch-rating threads) on every write path.
inline constexpr int kInsertShards = 2;
/// Ops placed per rating window of the mutation pipeline.
inline constexpr size_t kPipelineWindow = 128;

/// Seed of the DBpedia generator, the same for every run: the generator
/// draws its latent type model from it, and Cinderella's partitioning of
/// a 100k-row base is sensitive to both model and arrival order
/// (partition counts differed by 25% between generator seeds and by 10%
/// between orders of one model). Every run therefore starts from the
/// same base; the benchmark seed drives everything after it.
inline constexpr uint64_t kDbpediaSeed = 42;

/// DBpedia-shaped rows (Section V.B generator), ids 0..base+pool-1: the
/// first `base` rows are the fixed starting data, the `pool` rows after
/// them are payloads for the timed phase, in an order drawn from `seed`.
/// The generator draws every value uniformly from [0, 1e5); `nationality`
/// is folded to 40 codes so GROUP BY has a low-cardinality key next to
/// the high-cardinality ones. Attribute sets are untouched.
std::vector<cinderella::Row> GenerateDbpedia(
    uint64_t seed, size_t base, size_t pool,
    cinderella::AttributeDictionary* dictionary);

/// Order-independent-sum friendly hash of one row's id and cells.
uint64_t RowHash(const cinderella::Row& row);

/// Throws (ending the run without a result) when a setup step fails.
void Require(const cinderella::Status& status, const std::string& what);

/// a / b, or 0 when nothing was measured (b == 0).
inline double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Seed of the generator for one input stream of a run.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Latencies of one operation kind in a traced pass, split by whether the
/// operation was traced. Operations are traced in turn (TraceTurn), so the
/// same operation — the same `key`, such as a position in a repeating
/// cycle — runs traced in one round and untraced in the next. Each such
/// pair gives one traced/untraced ratio; the tracing overhead is the
/// median of those ratios, free of the differences between operations and
/// of slow drift in the host's speed.
struct TraceSplit {
  std::vector<double> traced;
  std::vector<double> plain;
  std::vector<double> ratios;

  void Add(size_t key, bool traced_op, double ms);

 private:
  struct Pending {
    bool traced;
    double ms;
  };
  std::map<size_t, Pending> pending_;
};

/// Whether operation `index` of round `round` is traced in a traced pass.
inline bool TraceTurn(size_t round, size_t index) {
  return (round + index) % 2 == 0;
}

/// What one pass of a workload measured: its setups and its timed phase.
struct PassResult {
  double setup_s = 0.0;  // Median over the pass's setups.
  Distribution reads;
  Distribution writes;
  double reads_per_s = 0.0;
  double write_rows_per_s = 0.0;
  double efficiency = 0.0;
  /// Resident set of the process in the first setup, after the benchmark
  /// built its inputs and oracle and before it created the engine.
  double client_rss_mb = 0.0;
  // Traced pass only.
  TraceSplit read_split;
  TraceSplit write_split;
  std::vector<std::pair<std::string, double>> layers;
};

/// One workload: its pass (setups, then the timed phase, traced or not,
/// recording checks and operations in `result`) and how to report it.
struct Workload {
  PassResult (*pass)(const Options& options, bool traced, int setups,
                     RunResult& result);
  const char* read_label;
  const char* write_label;
  /// The operation whose median defines trace.overhead_ratio.
  bool overhead_on_writes;
};

/// The untraced run: one pass with kSetupRepeats setups, end-to-end
/// metrics. The traced run: one pass with one setup whose operations are
/// traced in turn, per-layer metrics.
RunResult RunWorkload(const Options& options, const Workload& workload);

RunResult RunDbpediaIngest(const Options& options);
RunResult RunDbpediaServe(const Options& options);
RunResult RunTpchScatter(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
