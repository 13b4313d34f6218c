#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "mvcc/partition_version.h"

extern char** environ;

namespace cinderella {
namespace bench {

std::vector<Row> CopyRows(const std::vector<Row>& rows) { return rows; }

LoadResult LoadRows(Partitioner& partitioner, std::vector<Row> rows,
                    bool record_latencies) {
  LoadResult result;
  if (record_latencies) result.insert_ms.reserve(rows.size());
  WallTimer total;
  for (Row& row : rows) {
    if (record_latencies) {
      WallTimer one;
      const Status status = partitioner.Insert(std::move(row));
      result.insert_ms.push_back(one.ElapsedMillis());
      CINDERELLA_CHECK(status.ok());
    } else {
      CINDERELLA_CHECK(partitioner.Insert(std::move(row)).ok());
    }
  }
  result.total_seconds = total.ElapsedSeconds();
  return result;
}

std::vector<QueryTiming> TimeQueries(const PartitionCatalog& catalog,
                                     const std::vector<GeneratedQuery>& queries,
                                     int repetitions, const CostModel& model) {
  // Captured once, outside the timed loops.
  const CatalogCapture capture(catalog);
  QueryExecutor executor(capture.view());
  std::vector<QueryTiming> timings;
  timings.reserve(queries.size());
  for (const GeneratedQuery& generated : queries) {
    QueryTiming t;
    t.selectivity = generated.selectivity;
    QueryResult last;
    WallTimer timer;
    for (int r = 0; r < repetitions; ++r) {
      last = executor.Execute(generated.query);
    }
    t.avg_ms = timer.ElapsedMillis() / repetitions;
    t.modeled_cost = last.ModeledCost(model);
    t.partitions_scanned = last.metrics.partitions_scanned;
    t.partitions_total = last.metrics.partitions_total;
    timings.push_back(t);
  }
  return timings;
}

void PrintSelectivityTable(const std::vector<SelectivitySeries>& series,
                           size_t bins) {
  std::vector<std::string> headers{"selectivity"};
  for (const SelectivitySeries& s : series) {
    headers.push_back(s.label + " ms");
    headers.push_back(s.label + " cost(MB)");
  }
  TablePrinter table(std::move(headers));
  for (size_t bin = 0; bin < bins; ++bin) {
    const double lo = static_cast<double>(bin) / bins;
    const double hi = static_cast<double>(bin + 1) / bins;
    std::vector<std::string> cells;
    char label[32];
    std::snprintf(label, sizeof(label), "%.2f-%.2f", lo, hi);
    cells.push_back(label);
    bool any = false;
    for (const SelectivitySeries& s : series) {
      double ms = 0.0;
      double cost = 0.0;
      size_t count = 0;
      for (const QueryTiming& t : s.timings) {
        if (t.selectivity >= lo && (t.selectivity < hi || hi >= 1.0)) {
          ms += t.avg_ms;
          cost += t.modeled_cost;
          ++count;
        }
      }
      if (count == 0) {
        cells.push_back("-");
        cells.push_back("-");
      } else {
        any = true;
        cells.push_back(
            TablePrinter::FormatDouble(ms / count, 3));
        cells.push_back(
            TablePrinter::FormatDouble(cost / count / 1e6, 3));
      }
    }
    if (any) table.AddRow(std::move(cells));
  }
  std::fputs(table.ToString().c_str(), stdout);
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

namespace {

std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    if (*s == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(*s);
  }
  return out;
}

}  // namespace

void WriteHostMetadata(std::FILE* json) {
// Baked in by bench/CMakeLists.txt at configure time.
#ifndef CINDERELLA_BENCH_BUILD_TYPE
#define CINDERELLA_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef CINDERELLA_BENCH_BUILD_FLAGS
#define CINDERELLA_BENCH_BUILD_FLAGS ""
#endif
#ifndef CINDERELLA_BENCH_SANITIZE
#define CINDERELLA_BENCH_SANITIZE ""
#endif
  std::fprintf(json, "  \"host\": {\n");
  std::fprintf(json, "    \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(json, "    \"build_type\": \"%s\",\n",
               JsonEscape(CINDERELLA_BENCH_BUILD_TYPE).c_str());
  std::fprintf(json, "    \"build_flags\": \"%s\",\n",
               JsonEscape(CINDERELLA_BENCH_BUILD_FLAGS).c_str());
  std::fprintf(json, "    \"sanitizer\": \"%s\",\n",
               JsonEscape(CINDERELLA_BENCH_SANITIZE).c_str());
  // The effective scan morsel size (partitions per claimed chunk) —
  // CINDERELLA_SCAN_CHUNK or the built-in default; recorded explicitly
  // because it shifts every parallel-scan measurement.
  std::fprintf(json, "    \"scan_chunk\": %zu,\n",
               ThreadPool::ResolveScanChunk(0));
  // Every CINDERELLA_* knob in effect, sorted for stable diffs.
  std::vector<std::string> knobs;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "CINDERELLA_", 11) == 0) knobs.push_back(*env);
  }
  std::sort(knobs.begin(), knobs.end());
  std::fprintf(json, "    \"env\": {");
  for (size_t i = 0; i < knobs.size(); ++i) {
    const size_t eq = knobs[i].find('=');
    const std::string name = knobs[i].substr(0, eq);
    const std::string value = eq == std::string::npos
                                  ? std::string()
                                  : knobs[i].substr(eq + 1);
    std::fprintf(json, "%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                 JsonEscape(name.c_str()).c_str(),
                 JsonEscape(value.c_str()).c_str());
  }
  std::fprintf(json, "}\n  },\n");
}

}  // namespace bench
}  // namespace cinderella
