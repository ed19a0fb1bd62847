// Approximation estimators (Brandes–Pich uniform pivots, Bader et al.
// adaptive sampling): unbiasedness, convergence, and threshold behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "cpu/approx.hpp"
#include "cpu/brandes.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace {

using namespace hbc;
using graph::CSRGraph;
using graph::VertexId;

TEST(UniformApprox, AllPivotsEqualsExactInExpectation) {
  // Averaging over many seeds approaches exact BC (law of large numbers).
  const CSRGraph g = graph::gen::small_world({.num_vertices = 200, .k = 3, .seed = 4});
  const auto exact = cpu::brandes(g).bc;

  std::vector<double> avg(g.num_vertices(), 0.0);
  const int trials = 16;
  for (int t = 0; t < trials; ++t) {
    const auto est = cpu::approximate_bc(g, {.num_pivots = 50, .seed = 100u + t});
    EXPECT_EQ(est.pivots_used, 50u);
    for (std::size_t v = 0; v < avg.size(); ++v) avg[v] += est.bc[v] / trials;
  }
  double total_exact = 0, total_err = 0;
  for (std::size_t v = 0; v < avg.size(); ++v) {
    total_exact += exact[v];
    total_err += std::abs(avg[v] - exact[v]);
  }
  EXPECT_LT(total_err / total_exact, 0.15);
}

TEST(UniformApprox, MorePivotsReduceError) {
  const CSRGraph g = graph::gen::scale_free({.num_vertices = 300, .attach = 3, .seed = 1});
  const auto exact = cpu::brandes(g).bc;
  auto total_error = [&](std::uint32_t pivots) {
    double err = 0, avg_trials = 6;
    for (int t = 0; t < 6; ++t) {
      const auto est = cpu::approximate_bc(g, {.num_pivots = pivots, .seed = 7u + t});
      double e = 0;
      for (std::size_t v = 0; v < exact.size(); ++v) e += std::abs(est.bc[v] - exact[v]);
      err += e / avg_trials;
    }
    return err;
  };
  EXPECT_LT(total_error(128), total_error(8));
}

TEST(UniformApprox, DeterministicInSeed) {
  const CSRGraph g = graph::gen::scale_free({.num_vertices = 100, .attach = 2, .seed = 2});
  const auto a = cpu::approximate_bc(g, {.num_pivots = 10, .seed = 5});
  const auto b = cpu::approximate_bc(g, {.num_pivots = 10, .seed = 5});
  EXPECT_EQ(a.bc, b.bc);
}

TEST(UniformApprox, EmptyGraph) {
  const CSRGraph g;
  const auto est = cpu::approximate_bc(CSRGraph({0}, {}, true), {.num_pivots = 5});
  EXPECT_TRUE(est.bc.empty());
}

TEST(UniformApprox, TopVertexIdentifiedWithFewPivots) {
  // Star-of-paths: the hub dominates; even a handful of pivots finds it.
  graph::EdgeList edges;
  for (VertexId arm = 0; arm < 6; ++arm) {
    VertexId prev = 0;
    for (VertexId hop = 0; hop < 10; ++hop) {
      const VertexId v = 1 + arm * 10 + hop;
      edges.push_back({prev, v});
      prev = v;
    }
  }
  const CSRGraph g = graph::build_csr(61, edges);
  const auto est = cpu::approximate_bc(g, {.num_pivots = 6, .seed = 3});
  VertexId best = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (est.bc[v] > est.bc[best]) best = v;
  }
  EXPECT_EQ(best, 0u);
}

TEST(AdaptiveApprox, HighCentralityVertexStopsEarly) {
  // Hub of a star: its dependency per pivot is ~n, so the c*n threshold
  // fires after roughly c pivots.
  graph::EdgeList edges;
  const VertexId leaves = 200;
  for (VertexId v = 1; v <= leaves; ++v) edges.push_back({0, v});
  const CSRGraph g = graph::build_csr(leaves + 1, edges);

  const auto r = cpu::adaptive_bc(g, 0, {.c = 2.0, .seed = 1});
  EXPECT_TRUE(r.threshold_hit);
  EXPECT_LT(r.pivots_used, 10u);
  const double exact = static_cast<double>(leaves) * (leaves - 1);
  EXPECT_GT(r.bc_estimate, exact * 0.5);
  EXPECT_LT(r.bc_estimate, exact * 2.0);
}

TEST(AdaptiveApprox, ZeroCentralityVertexNeverHitsThreshold) {
  graph::EdgeList edges;
  for (VertexId v = 1; v <= 20; ++v) edges.push_back({0, v});
  const CSRGraph g = graph::build_csr(21, edges);
  // A leaf has BC 0: the loop must run to the pivot cap.
  const auto r = cpu::adaptive_bc(g, 5, {.c = 1.0, .max_pivots = 15, .seed = 2});
  EXPECT_FALSE(r.threshold_hit);
  EXPECT_EQ(r.pivots_used, 15u);
  EXPECT_DOUBLE_EQ(r.bc_estimate, 0.0);
}

TEST(AdaptiveApprox, EstimateTracksExactValue) {
  const CSRGraph g = graph::gen::scale_free({.num_vertices = 250, .attach = 2, .seed = 6});
  const auto exact = cpu::brandes(g).bc;
  // Pick the highest-BC vertex; the adaptive estimate should be within a
  // factor ~2 with generous sampling.
  VertexId target = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (exact[v] > exact[target]) target = v;
  }
  const auto r = cpu::adaptive_bc(g, target, {.c = 20.0, .max_pivots = 250, .seed = 9});
  EXPECT_GT(r.bc_estimate, exact[target] * 0.5);
  EXPECT_LT(r.bc_estimate, exact[target] * 2.0);
}

TEST(AdaptiveApprox, InvalidTargetReturnsZero) {
  const CSRGraph g = graph::gen::figure1_graph();
  const auto r = cpu::adaptive_bc(g, 100);
  EXPECT_EQ(r.pivots_used, 0u);
  EXPECT_EQ(r.bc_estimate, 0.0);
}

// Both estimators run their pivots over one reused cpu::SingleSource.
// Their bits must equal the per-pivot path that gives every pivot a fresh
// workspace through single_source_dependencies.
TEST(ApproxWorkspaceReuse, BitsMatchFreshWorkspacePerPivot) {
  for (const char* family : {"kron", "rgg"}) {
    const CSRGraph g = graph::gen::family_by_name(family).make(9, 3);
    const VertexId n = g.num_vertices();
    constexpr std::uint32_t kPivots = 96;
    constexpr std::uint64_t kSeed = 11;

    std::vector<double> want(n, 0.0);
    util::Xoshiro256 rng(kSeed);
    for (std::uint32_t k = 0; k < kPivots; ++k) {
      const auto s = static_cast<VertexId>(rng.next_below(n));
      const auto delta = cpu::single_source_dependencies(g, s);
      for (VertexId v = 0; v < n; ++v) {
        if (v != s) want[v] += delta[v];
      }
    }
    for (double& x : want) x *= static_cast<double>(n) / kPivots;
    const auto uniform = cpu::approximate_bc(g, {.num_pivots = kPivots, .seed = kSeed});
    ASSERT_EQ(uniform.bc.size(), want.size());
    EXPECT_EQ(0, std::memcmp(uniform.bc.data(), want.data(), n * sizeof(double)))
        << family;

    // Adaptive: a threshold too high to fire, so every capped pivot runs.
    const VertexId target = n / 2;
    double accumulated = 0.0;
    rng = util::Xoshiro256(kSeed);
    for (std::uint32_t k = 0; k < kPivots; ++k) {
      const auto s = static_cast<VertexId>(rng.next_below(n));
      if (s != target) accumulated += cpu::single_source_dependencies(g, s)[target];
    }
    const double want_estimate = static_cast<double>(n) * accumulated / kPivots;
    const auto adaptive =
        cpu::adaptive_bc(g, target, {.c = 1e9, .max_pivots = kPivots, .seed = kSeed});
    EXPECT_EQ(adaptive.pivots_used, kPivots);
    EXPECT_FALSE(adaptive.threshold_hit);
    EXPECT_EQ(0, std::memcmp(&adaptive.bc_estimate, &want_estimate, sizeof(double)))
        << family;
  }
}

}  // namespace
