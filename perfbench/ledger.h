// Measurement plumbing shared by the three workloads: latency samples and
// their summaries, the span tracer of the traced run, and the result
// record the benchmark prints as one JSON line.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median and tail of one latency sample. The tail is the highest
/// percentile that still has at least ten samples above it, so it is
/// never read off a handful of outliers.
struct Distribution {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
};

Distribution Summarize(std::vector<double> samples);

/// Median of a sample (mean of the middle pair for an even count).
double Median(std::vector<double> samples);

/// One timed call: either a whole client operation (parent == -1) or a
/// call into one layer made while serving that operation.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t op = 0;
};

/// Records spans in memory while tracing is on; every method is a no-op
/// when it is off, so the untraced run pays one branch per call site.
/// A traced run switches tracing on and off per operation, so traced and
/// untraced operations interleave in one timed phase and pairs of them
/// give the tracing overhead (TraceSplit). Single-threaded: the
/// benchmark's client is one thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// True while the current operation is traced.
  bool enabled() const { return enabled_ && traced_; }

  /// Opens a span under the innermost open one; returns its index.
  int32_t Begin(const char* name);
  void End(int32_t index);

  /// Starts the next client operation: spans opened at the top level
  /// belong to it. In a traced run, `traced` says whether this operation
  /// records spans; an untraced run ignores it. Returns whether it does.
  bool NextOp(bool traced = true) {
    ++op_;
    traced_ = traced;
    return enabled();
  }

  /// Durations (ms) of every closed span with this name.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Per span name: total self time (duration minus the time covered by
  /// direct children), in ms, and the number of spans.
  struct SelfTime {
    double self_ms = 0.0;
    double total_ms = 0.0;
    uint64_t count = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;

  /// For every operation span (name "op.*"): the share of its duration
  /// covered by its direct children, the layer calls. Returns the median.
  double MedianCoverage() const;

  /// Writes every span as one CSV line (name, op, parent, start, end).
  bool WriteCsv(const std::string& path) const;

 private:
  bool enabled_;
  bool traced_ = true;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; inert when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.enabled() ? tracer.Begin(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_.End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t index_;
};

/// Name and unit of one reported metric, in BENCHMARK.json order.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What one workload run reports. `correct` is false when any result
/// check failed; `failed` counts the operations whose call returned an
/// error or whose result the check rejected.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;

  void Set(const std::string& name, double value) { values[name] = value; }
  /// Records a failed check: prints `what` and marks the run incorrect.
  void Fail(const std::string& what);
};

/// The final result line: exactly correct/attempted/failed/metrics, with
/// one metric per spec. A spec the run did not set reads 0: the workload
/// does no work of that kind.
std::string ResultJson(const RunResult& result,
                       const std::vector<MetricSpec>& specs);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Current resident set size of this process, in MB.
double CurrentRssMb();

/// Prints the span table of a traced run: per span name, count, total and
/// self time (duration minus direct children).
void PrintSelfTimes(const Tracer& tracer);

/// Prints one "name: p50 / tail (pNN of M samples)" line.
void PrintDistribution(const char* name, const Distribution& d);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
