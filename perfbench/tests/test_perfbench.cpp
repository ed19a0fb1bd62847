// Unit tests for the benchmark's own parts: the percentile rule, the window
// medians, the seeded request stream, and that every cataloged metric is
// emitted with its unit by every workload (traced runs also validate their
// Chrome trace).

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "report.hpp"
#include "stream.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using hbc::core::Strategy;

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(supported_percentile(0), 0.0);
  EXPECT_EQ(supported_percentile(19), 0.0);
  EXPECT_EQ(supported_percentile(20), 50.0);
  EXPECT_EQ(supported_percentile(99), 50.0);
  EXPECT_EQ(supported_percentile(100), 90.0);
  EXPECT_EQ(supported_percentile(999), 90.0);
  EXPECT_EQ(supported_percentile(1000), 99.0);
  EXPECT_EQ(supported_percentile(9999), 99.0);
  EXPECT_EQ(supported_percentile(10000), 99.9);
  EXPECT_EQ(percentile_label(99.0), "p99");
  EXPECT_EQ(percentile_label(99.9), "p99.9");
  EXPECT_EQ(percentile_label(0.0), "none");
}

TEST(PercentileRule, SummaryReportsCountAndSupport) {
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  const LatencySummary s = summarize(xs);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_EQ(s.supported, 99.0);
  EXPECT_NEAR(s.p50, 500.5, 1e-9);
  EXPECT_NEAR(s.p99, 990.01, 1e-9);
}

TEST(WindowMedians, SlowStretchInTwoOfTenWindowsDoesNotMoveThem) {
  // 1000 answers of 32 roots each, one every 10 ms and 40 ms long, except
  // answers 400-599, which come four times slower: 8 s of the 14 s phase.
  std::vector<Answer> answers;
  double t = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const bool slow = i >= 400 && i < 600;
    t += slow ? 0.04 : 0.01;
    answers.push_back({t, slow ? 160.0 : 40.0, i % 10 != 0, 32});
  }
  const WindowMedians w = window_medians(answers, 10);
  EXPECT_EQ(w.windows, 10u);
  EXPECT_EQ(w.per_window, 100u);
  EXPECT_NEAR(w.qps, 90.0, 1e-6);  // nine in ten answers are OK
  EXPECT_NEAR(w.roots_per_s, 3200.0, 1e-6);
  EXPECT_NEAR(w.p50_ms, 40.0, 1e-9);
  EXPECT_NEAR(w.qps_min, 22.5, 1e-6);
  EXPECT_NEAR(w.qps_max, 90.0, 1e-6);
  // The order answers are handed in does not matter.
  std::reverse(answers.begin(), answers.end());
  EXPECT_NEAR(window_medians(answers, 10).qps, 90.0, 1e-6);
}

TEST(WindowMedians, FewerAnswersThanWindows) {
  EXPECT_EQ(window_medians({}, 30).windows, 0u);
  EXPECT_EQ(window_medians({}, 30).qps, 0.0);
  const WindowMedians w = window_medians({{0.5, 3.0, true, 0}, {1.0, 5.0, true, 0}}, 30);
  EXPECT_EQ(w.windows, 2u);
  EXPECT_NEAR(w.qps, 2.0, 1e-9);
  EXPECT_NEAR(w.p50_ms, 4.0, 1e-9);
}

RequestStream serve_stream(std::uint64_t seed) {
  return RequestStream({.seed = seed, .cold_strategies = {Strategy::Sampling, Strategy::CpuSerial}});
}

bool same_entry(const StreamEntry& a, const StreamEntry& b) {
  return a.strategy == b.strategy && a.sample_roots == b.sample_roots && a.seed == b.seed &&
         a.warm == b.warm && a.warm_index == b.warm_index;
}

TEST(RequestStream, OneSeedAlwaysYieldsTheSameStream) {
  const RequestStream a = serve_stream(7), b = serve_stream(7), c = serve_stream(8);
  bool differs = false;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    EXPECT_TRUE(same_entry(a.at(i), b.at(i))) << i;
    differs = differs || !same_entry(a.at(i), c.at(i));
  }
  EXPECT_TRUE(differs);
}

TEST(RequestStream, ExactRepeatShareAndStrategyMix) {
  const RequestStream s = serve_stream(11);
  std::set<std::uint64_t> cold_seeds, warm_seeds;
  std::uint64_t cold = 0;
  for (std::uint64_t block = 0; block < 1000; ++block) {
    int warm_in_block = 0;
    for (std::uint64_t k = 0; k < 4; ++k) {
      const StreamEntry e = s.at(block * 4 + k);
      EXPECT_EQ(e.sample_roots, 32u);
      if (e.warm) {
        ++warm_in_block;
        EXPECT_LT(e.warm_index, 8u);
        EXPECT_TRUE(same_entry(e, s.warm(e.warm_index)));
        warm_seeds.insert(e.seed);
      } else {
        // Cold requests alternate sampling / cpu-serial in stream order.
        EXPECT_EQ(e.strategy, cold % 2 == 0 ? Strategy::Sampling : Strategy::CpuSerial);
        EXPECT_TRUE(cold_seeds.insert(e.seed).second) << "cold seed reused";
        ++cold;
      }
    }
    EXPECT_EQ(warm_in_block, 1) << "block " << block;
  }
  EXPECT_EQ(cold, 3000u);
  EXPECT_EQ(warm_seeds.size(), 8u);
  for (std::uint64_t w : warm_seeds) EXPECT_EQ(cold_seeds.count(w), 0u);
  // Warm entries use both strategies, half each.
  int sampling = 0;
  for (std::uint32_t j = 0; j < 8; ++j) sampling += s.warm(j).strategy == Strategy::Sampling;
  EXPECT_EQ(sampling, 4);
}

TEST(RequestStream, LinesAreHbcServeWorkloadLines) {
  const RequestStream s = serve_stream(3);
  for (std::uint64_t i = 0; i < 64; ++i) {
    const StreamEntry e = s.at(i);
    std::istringstream fields(s.workload_line(e));
    std::string graph_id, strategy, extra;
    std::uint32_t roots = 0;
    std::uint64_t seed = 0;
    ASSERT_TRUE(fields >> graph_id >> strategy >> roots >> seed);
    EXPECT_FALSE(fields >> extra);
    EXPECT_EQ(graph_id, kGraphId);
    EXPECT_EQ(hbc::core::strategy_from_string(strategy), e.strategy);
    EXPECT_EQ(roots, e.sample_roots);
    EXPECT_EQ(seed, e.seed);
    const hbc::service::Request r = s.request(e, 10);
    EXPECT_EQ(r.options.seed, e.seed);
    EXPECT_EQ(r.options.sample_roots, e.sample_roots);
    EXPECT_EQ(r.top_k, 10u);
  }
}

TEST(Report, RefusesUnknownAndMissingMetrics) {
  Report r;
  EXPECT_THROW(r.set("no_such_metric", 1.0), std::invalid_argument);
  r.set("setup_s", 1.0);
  EXPECT_THROW(r.result_line(Kind::EndToEnd, true, 1, 0), std::logic_error);
}

/// The catalog is what BENCHMARK.json declares, name for name and unit for
/// unit.
TEST(Catalog, MatchesBenchmarkJson) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  std::size_t units = 0;
  for (std::size_t at = json.find("\"unit\""); at != std::string::npos;
       at = json.find("\"unit\"", at + 1)) {
    ++units;
  }
  EXPECT_EQ(units, metric_catalog().size());
  for (const MetricInfo& m : metric_catalog()) {
    const std::string entry =
        std::string("\"name\": \"") + m.name + "\", \"unit\": \"" + m.unit + "\"";
    EXPECT_NE(json.find(entry), std::string::npos) << entry;
  }
}

/// Every workload, shrunk, emits exactly the catalog metrics of the kind
/// its mode reports, each with its unit, and its answers check out.
class EveryMetricEmitted : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(EveryMetricEmitted, WithItsUnit) {
  Params p;
  p.workload = std::get<0>(GetParam());
  p.trace = std::get<1>(GetParam());
  p.seed = 5;
  p.seconds = 0.4;
  p.kron_scale = 9;
  p.serve_scale = 8;
  p.fleet_scale = 8;
  p.batch_roots = 32;
  const Outcome out = run_workload(p);
  EXPECT_TRUE(out.correct);
  EXPECT_EQ(out.failed, 0u);
  EXPECT_GT(out.attempted, 0u);
  const Kind kind = p.trace ? Kind::PerLayer : Kind::EndToEnd;
  const std::string line = out.report.result_line(kind, out.correct, out.attempted, out.failed);
  std::size_t expected = 0;
  for (const MetricInfo& m : metric_catalog()) {
    const std::string key = std::string("\"") + m.name + "\": {\"value\": ";
    const std::size_t at = line.find(key);
    if (m.kind != kind) {
      EXPECT_EQ(at, std::string::npos) << m.name;
      continue;
    }
    ++expected;
    ASSERT_NE(at, std::string::npos) << m.name;
    const std::string unit = std::string("\"unit\": \"") + m.unit + "\"}";
    EXPECT_EQ(line.find(unit, at), line.find('}', at) - unit.size() + 1) << m.name;
  }
  std::size_t units = 0;
  for (std::size_t at = line.find("\"unit\""); at != std::string::npos;
       at = line.find("\"unit\"", at + 1)) {
    ++units;
  }
  EXPECT_EQ(units, expected);
  EXPECT_EQ(line.rfind("{\"correct\": true", 0), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EveryMetricEmitted,
    ::testing::Combine(::testing::Values("batch-kron", "serve-mixed", "fleet-rgg"),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + (std::get<1>(info.param) ? "_traced" : "");
      for (char& c : name) c = c == '-' ? '_' : c;
      return name;
    });

}  // namespace
}  // namespace perfbench
