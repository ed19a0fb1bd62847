#pragma once

// Metric catalog, latency summaries and the result line.
//
// Every metric the benchmark can emit is named once in the catalog, with
// its unit and whether it is end-to-end (reported by untraced runs) or
// per-layer (reported by traced runs). A run must set every metric of the
// kind it reports; emitting one that is missing or not in the catalog is
// an error, so the output always matches BENCHMARK.json.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Kind { EndToEnd, PerLayer };

struct MetricInfo {
  const char* name;
  const char* unit;
  Kind kind;
};

const std::vector<MetricInfo>& metric_catalog();
const MetricInfo& metric_info(const std::string& name);

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 that has at
/// least ten samples beyond it: p qualifies when n * (1 - p/100) >= 10.
/// Returns 0 when even the median lacks ten samples above it (n < 20).
double supported_percentile(std::size_t samples) noexcept;

/// "p99", "p99.9", "p50", or "none".
std::string percentile_label(double percentile);

/// Median and tail of one latency sample set, with the sample count and
/// the highest percentile the count supports.
struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double supported = 0.0;  // supported_percentile(samples)
};
LatencySummary summarize(std::vector<double> values);

/// One answer of a timed serving phase.
struct Answer {
  double done_s = 0.0;  // when it came back, seconds into the phase
  double latency_ms = 0.0;
  bool ok = false;
  std::uint64_t roots = 0;  // roots computed for it; 0 if it was not computed
};

/// Medians over windows. The answers, in the order they came back, are cut
/// into `windows` runs of equal count. Each run's rates are over the time
/// from the previous run's last answer (the phase start for the first run)
/// to its own last answer. A slow stretch that holds fewer than half of the
/// answers moves none of the medians.
struct WindowMedians {
  std::size_t windows = 0;     // non-empty windows
  std::size_t per_window = 0;  // answers per window, rounded down
  double qps = 0.0;            // OK answers per second
  double roots_per_s = 0.0;
  double p50_ms = 0.0;         // median of the windows' median latencies
  double qps_min = 0.0;
  double qps_max = 0.0;
};
WindowMedians window_medians(std::vector<Answer> answers, std::size_t windows);

class Report {
 public:
  /// Set a catalog metric; throws std::invalid_argument for an unknown name.
  void set(const std::string& name, double value);
  bool has(const std::string& name) const { return values_.count(name) != 0; }
  double get(const std::string& name) const;

  /// Free-form lines printed before the result (host facts, sample counts).
  void note(std::string line) { notes_.push_back(std::move(line)); }
  const std::vector<std::string>& notes() const noexcept { return notes_; }

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}
  /// with exactly the catalog metrics of `kind`. Throws std::logic_error
  /// when one of them was never set.
  std::string result_line(Kind kind, bool correct, std::uint64_t attempted,
                          std::uint64_t failed) const;

  /// Human-readable "name: value unit" lines for every metric set.
  std::vector<std::string> metric_lines() const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench
