// End-to-end benchmark program: runs one workload and prints its metrics as
// the last line of standard output (see perfbench/README.md).
//
//   cinderella_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                        --data-dir DIR
#include <malloc.h>
#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

/// End-to-end metrics, printed with --trace 0 (BENCHMARK.json order).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"efficiency", "ratio"},   {"write_rows_per_s", "1/s"},
    {"write_p50_ms", "ms"},    {"write_tail_ms", "ms"},
    {"reads_per_s", "1/s"},    {"read_p50_ms", "ms"},
    {"read_tail_ms", "ms"},
};

/// Per-layer metrics, printed with --trace 1 (BENCHMARK.json order). A
/// metric reads 0 on a workload that does no work in that layer.
const std::vector<MetricSpec> kPerLayer = {
    {"workload.generate_s", "s"},
    {"core.ratings_per_row", "count"},
    {"synopsis.candidate_share", "ratio"},
    {"core.splits_per_krow", "count"},
    {"core.rows_per_split", "count"},
    {"core.update_move_share", "ratio"},
    {"core.partitions", "count"},
    {"ingest.recheck_share", "ratio"},
    {"ingest.windows_per_batch", "count"},
    {"io.apply_ms", "ms"},
    {"io.fsyncs_per_batch", "count"},
    {"io.journal_bytes_per_row", "B"},
    {"io.checkpoint_s", "s"},
    {"io.recover_s", "s"},
    {"io.recover_grouping_match", "count"},
    {"storage.spills_per_krow", "count"},
    {"storage.faults_per_krow", "count"},
    {"storage.cold_share", "ratio"},
    {"storage.read_us", "us"},
    {"pagestore.pages_written_per_krow", "count"},
    {"pagestore.pages_read_per_krow", "count"},
    {"pagestore.pool_hit_rate", "ratio"},
    {"mvcc.snapshot_us", "us"},
    {"mvcc.apply_ms", "ms"},
    {"mvcc.views_per_write", "count"},
    {"mvcc.arena_blocks", "count"},
    {"synopsis.tree_nodes_copied_per_view", "count"},
    {"query.parse_us", "us"},
    {"query.scan_ms", "ms"},
    {"query.aggregate_ms", "ms"},
    {"query.scanned_share", "ratio"},
    {"query.rows_scanned_per_match", "ratio"},
    {"query.false_positive_share", "ratio"},
    {"net.gather_ms", "ms"},
    {"net.slowest_node_ms", "ms"},
    {"net.coordinator_ms", "ms"},
    {"net.cells_shipped_per_query", "count"},
    {"net.nodes_pruned_share", "ratio"},
    {"net.retries", "count"},
    {"distributed.straggler_row_share", "ratio"},
    {"trace.span_coverage", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

const char* FilesystemName(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: return "other";
  }
}

/// glibc malloc's mmap threshold slides with the history of frees, and
/// freed memory at the top of a heap goes back to the kernel, so the
/// engine's short-lived buffers are unmapped and faulted in again, and what
/// a fault costs follows the host's load. The benchmark pins both, as a
/// long-running server would keep its heap: blocks below 32 MiB come from
/// the heap, and the heap is never trimmed. With the defaults, one
/// dbpedia_serve run took 1.13 million minor faults (250 thousand pinned),
/// and its read metrics spread 0.19 over five seeds against 0.08-0.10
/// pinned.
constexpr int kMmapThresholdBytes = 32 << 20;

bool PinAllocator() {
  return mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes) == 1 &&
         mallopt(M_TRIM_THRESHOLD, -1) == 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: cinderella_perfbench --workload "
               "dbpedia_ingest|dbpedia_serve|tpch_scatter --seed N "
               "--seconds S --trace 0|1 --data-dir DIR\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  // Every knob is pinned in code; an inherited CINDERELLA_* variable could
  // still reach a default the benchmark does not set, so refuse to run.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "CINDERELLA_", 11) == 0) {
      const std::string entry = *env;
      std::fprintf(stderr, "error: environment variable %s is set; unset it "
                   "to run the benchmark\n",
                   entry.substr(0, entry.find('=')).c_str());
      return 2;
    }
  }
  if (!PinAllocator()) {
    std::fprintf(stderr, "error: could not pin the malloc thresholds\n");
    return 2;
  }
  Options options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || options.data_dir.empty() || options.seconds < 1) {
    return Usage("missing or invalid arguments");
  }
  RunResult (*run)(const Options&) = nullptr;
  if (options.workload == "dbpedia_ingest") run = RunDbpediaIngest;
  if (options.workload == "dbpedia_serve") run = RunDbpediaServe;
  if (options.workload == "tpch_scatter") run = RunTpchScatter;
  if (run == nullptr) return Usage("unknown workload");

  std::filesystem::create_directories(options.data_dir);
  std::printf("host: nproc %u, build %s, flags '%s', data dir on %s, "
              "malloc mmap threshold %d MiB, heap trim off\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_FLAGS, FilesystemName(options.data_dir),
              kMmapThresholdBytes >> 20);
  std::printf("workload %s, seed %llu, seconds %d, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);
  RunResult result;
  try {
    result = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (options.trace) {
    // Per-layer metrics this workload does not exercise read 0; say which.
    std::string idle;
    for (const MetricSpec& spec : kPerLayer) {
      if (result.values.count(spec.name) == 0) idle += std::string(" ") + spec.name;
    }
    std::printf("per-layer metrics with no work on this workload (0):%s\n",
                idle.c_str());
  }
  std::printf("%s\n",
              ResultJson(result, options.trace ? kPerLayer : kEndToEnd).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
