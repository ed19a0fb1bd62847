#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/stats.hpp"

namespace perfbench {

const std::vector<MetricInfo>& metric_catalog() {
  static const std::vector<MetricInfo> catalog = {
      {"setup_s", "s", Kind::EndToEnd},
      {"host_mteps", "MTEPS", Kind::EndToEnd},
      {"qps", "1/s", Kind::EndToEnd},
      {"p50_ms", "ms", Kind::EndToEnd},
      {"peak_rss_mb", "MiB", Kind::EndToEnd},

      {"graph.build_s", "s", Kind::PerLayer},
      {"cpu.host_mteps", "MTEPS", Kind::PerLayer},
      {"kernels.host_mteps", "MTEPS", Kind::PerLayer},
      {"kernels.sim_mteps", "MTEPS", Kind::PerLayer},
      {"gpusim.sim_cycles", "cycles", Kind::PerLayer},
      {"gpusim.edges_inspected", "count", Kind::PerLayer},
      {"gpusim.atomic_ops", "count", Kind::PerLayer},
      {"core.computes_per_request", "count", Kind::PerLayer},
      {"service.submit_us_p50", "us", Kind::PerLayer},
      {"service.submit_us_p99", "us", Kind::PerLayer},
      {"service.hit_ratio", "share", Kind::PerLayer},
      {"service.coalesced_ratio", "share", Kind::PerLayer},
      {"service.hit_latency_us_p50", "us", Kind::PerLayer},
      {"service.queue_wait_ms_p50", "ms", Kind::PerLayer},
      {"service.queue_wait_ms_p99", "ms", Kind::PerLayer},
      {"service.queue_peak_depth", "count", Kind::PerLayer},
      {"service.compute_ms_p50", "ms", Kind::PerLayer},
      {"service.compute_ms_p99", "ms", Kind::PerLayer},
      {"net.overhead_ms_p50", "ms", Kind::PerLayer},
      {"net.overhead_ms_p99", "ms", Kind::PerLayer},
      {"net.hit_ratio", "share", Kind::PerLayer},
      {"net.shards_per_query", "count", Kind::PerLayer},
      {"net.wasted_shard_ratio", "share", Kind::PerLayer},
      {"net.shard_balance", "ratio", Kind::PerLayer},
      {"wire.encode_us", "us", Kind::PerLayer},
      {"wire.decode_us", "us", Kind::PerLayer},
      {"wire.frame_bytes", "bytes", Kind::PerLayer},
      {"trace.overhead_ratio", "ratio", Kind::PerLayer},
  };
  return catalog;
}

const MetricInfo& metric_info(const std::string& name) {
  for (const MetricInfo& m : metric_catalog()) {
    if (name == m.name) return m;
  }
  throw std::invalid_argument("metric not in the catalog: " + name);
}

double supported_percentile(std::size_t samples) noexcept {
  static constexpr double kLadder[] = {99.9, 99.0, 90.0, 50.0};
  for (double p : kLadder) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

std::string percentile_label(double percentile) {
  if (percentile <= 0.0) return "none";
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%g", percentile);
  return buf;
}

LatencySummary summarize(std::vector<double> values) {
  LatencySummary s;
  s.samples = values.size();
  s.supported = supported_percentile(values.size());
  s.p50 = hbc::util::percentile(values, 50.0);
  s.p99 = hbc::util::percentile(std::move(values), 99.0);
  return s;
}

WindowMedians window_medians(std::vector<Answer> answers, std::size_t windows) {
  std::sort(answers.begin(), answers.end(),
            [](const Answer& a, const Answer& b) { return a.done_s < b.done_s; });
  WindowMedians out;
  out.per_window = windows == 0 ? 0 : answers.size() / windows;
  std::vector<double> qps, roots_per_s, p50;
  double from_s = 0.0;
  for (std::size_t k = 0; k < windows; ++k) {
    const std::size_t lo = k * answers.size() / windows;
    const std::size_t hi = (k + 1) * answers.size() / windows;
    if (lo == hi) continue;
    const double span_s = answers[hi - 1].done_s - from_s;
    from_s = answers[hi - 1].done_s;
    if (span_s <= 0.0) continue;
    std::uint64_t ok = 0, roots = 0;
    std::vector<double> latencies;
    for (std::size_t i = lo; i < hi; ++i) {
      ok += answers[i].ok ? 1 : 0;
      roots += answers[i].roots;
      latencies.push_back(answers[i].latency_ms);
    }
    qps.push_back(static_cast<double>(ok) / span_s);
    roots_per_s.push_back(static_cast<double>(roots) / span_s);
    p50.push_back(hbc::util::median(std::move(latencies)));
  }
  out.windows = qps.size();
  if (qps.empty()) return out;
  out.qps_min = *std::min_element(qps.begin(), qps.end());
  out.qps_max = *std::max_element(qps.begin(), qps.end());
  out.qps = hbc::util::median(std::move(qps));
  out.roots_per_s = hbc::util::median(std::move(roots_per_s));
  out.p50_ms = hbc::util::median(std::move(p50));
  return out;
}

void Report::set(const std::string& name, double value) {
  metric_info(name);
  values_[name] = value;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::logic_error("metric not set: " + name);
  return it->second;
}

std::string Report::result_line(Kind kind, bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricInfo& m : metric_catalog()) {
    if (m.kind != kind) continue;
    const double v = get(m.name);
    if (!std::isfinite(v)) throw std::logic_error(std::string("metric not finite: ") + m.name);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", v);
    out += first ? "" : ", ";
    out += "\"" + std::string(m.name) + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

std::vector<std::string> Report::metric_lines() const {
  std::vector<std::string> lines;
  for (const MetricInfo& m : metric_catalog()) {
    const auto it = values_.find(m.name);
    if (it == values_.end()) continue;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-28s %14.6g %s", m.name, it->second, m.unit);
    lines.emplace_back(buf);
  }
  return lines;
}

}  // namespace perfbench
