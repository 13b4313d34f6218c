#include "ledger.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Distribution Summarize(std::vector<double> samples) {
  Distribution d;
  d.count = samples.size();
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  d.p50 = n % 2 == 1 ? samples[n / 2]
                     : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  // Ten samples strictly above the reported one; with fewer than eleven
  // samples the maximum is all there is.
  const size_t index = n > 10 ? n - 11 : n - 1;
  d.tail = samples[index];
  d.tail_percentile = n > 10 ? 100.0 * static_cast<double>(n - 10) /
                                   static_cast<double>(n)
                             : 100.0;
  return d;
}

int32_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans are strictly nested (one client thread), so the closing span is
  // the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  // Children of one span run one after another on the client thread, so
  // the part of a span they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t total = spans_[i].end_ns - spans_[i].start_ns;
    SelfTime& entry = out[spans_[i].name];
    entry.total_ms += static_cast<double>(total) / 1e6;
    entry.self_ms += static_cast<double>(total - child_ns[i]) / 1e6;
    ++entry.count;
  }
  return out;
}

double Tracer::MedianCoverage() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::vector<double> shares;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t total = spans_[i].end_ns - spans_[i].start_ns;
    const bool op = std::string(spans_[i].name).rfind("op.", 0) == 0;
    if (op && total > 0) {
      shares.push_back(static_cast<double>(child_ns[i]) /
                       static_cast<double>(total));
    }
  }
  return Median(std::move(shares));
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,op,parent,start_ns,end_ns\n";
  for (const Span& span : spans_) {
    out << span.name << ',' << span.op << ',' << span.parent << ','
        << span.start_ns << ',' << span.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

void RunResult::Fail(const std::string& what) {
  std::printf("CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

std::string ResultJson(const RunResult& result,
                       const std::vector<MetricSpec>& specs) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto it = result.values.find(specs[i].name);
    const double v = it == result.values.end() || !std::isfinite(it->second)
                         ? 0.0
                         : it->second;
    char value[64];
    // Full precision: the value as measured, never rounded to a constant.
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += std::string("\"") + specs[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double CurrentRssMb() {
  long pages = 0, resident = 0;
  std::ifstream statm("/proc/self/statm");
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void PrintSelfTimes(const Tracer& tracer) {
  std::printf("  %-22s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, t] : tracer.SelfTimes()) {
    std::printf("  %-22s %8llu %12.2f %12.2f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_ms,
                t.self_ms);
  }
}

void PrintDistribution(const char* name, const Distribution& d) {
  std::printf("  %-22s p50 %.4f ms, tail %.4f ms (p%.1f of %zu samples)\n",
              name, d.p50, d.tail, d.tail_percentile, d.count);
}

}  // namespace perfbench
