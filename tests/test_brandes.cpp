// Correctness of the CPU oracles: serial Brandes vs the definition-level
// naive path-counting BC, exact values on the paper's Figure 1 graph, and
// the parallel Brandes reduction and its locality-first relabel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "cpu/brandes.hpp"
#include "cpu/naive.hpp"
#include "cpu/fine_grained.hpp"
#include "cpu/parallel_brandes.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/storage/compressed.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hbc;
using graph::CSRGraph;
using graph::Edge;
using graph::VertexId;

void expect_vectors_near(const std::vector<double>& a, const std::vector<double>& b,
                         double tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "index " << i;
  }
}

TEST(Brandes, MatchesNaiveOnFigure1) {
  const CSRGraph g = graph::gen::figure1_graph();
  expect_vectors_near(cpu::brandes(g).bc, cpu::naive_bc(g));
}

TEST(Brandes, Figure1QualitativeProperties) {
  // The claims the paper makes about its Figure 1 (paper ids in comments;
  // ours are paper-1).
  const CSRGraph g = graph::gen::figure1_graph();
  const auto bc = cpu::brandes(g).bc;

  EXPECT_NEAR(bc[8], 0.0, 1e-12);  // paper vertex 9: leaf, BC = 0
  EXPECT_NEAR(bc[7], 0.0, 1e-12);  // paper vertex 8: only non-shortest paths
  EXPECT_NEAR(bc[5], 0.0, 1e-12);  // paper vertex 6: leaf off the bridge
  // Paper vertex 4 bridges the halves: strictly the largest score.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v != 3) {
      EXPECT_GT(bc[3], bc[v]) << "vertex " << v;
    }
  }
}

TEST(Brandes, Figure1ExactBridgeScore) {
  // Vertex 4 (ours: 3) carries: every right{1,2,3} x left{5..9} pair
  // (3*5 = 15 unordered), every pair between leaf 6 and the rest of the
  // left side {5,7,8,9} (4 unordered), and half of the two equal-length
  // 1-2-3 / 1-4-3 paths between vertices 1 and 3 (0.5). Both directions:
  // 2 * (15 + 4 + 0.5) = 39.
  const CSRGraph g = graph::gen::figure1_graph();
  const auto bc = cpu::brandes(g).bc;
  EXPECT_NEAR(bc[3], 39.0, 1e-12);
}

TEST(Brandes, PathGraphClosedForm) {
  // On a path 0-1-2-3-4, interior vertex v lies on all ordered pairs
  // (left, right): BC(v) = 2 * (v)(n-1-v).
  const int n = 5;
  graph::EdgeList edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back({v, static_cast<VertexId>(v + 1)});
  const CSRGraph g = graph::build_csr(n, edges);
  const auto bc = cpu::brandes(g).bc;
  for (int v = 0; v < n; ++v) {
    EXPECT_NEAR(bc[v], 2.0 * v * (n - 1 - v), 1e-12) << "vertex " << v;
  }
}

TEST(Brandes, StarGraphCenter) {
  // Star with c leaves: center lies on all leaf pairs; leaves have 0.
  const int leaves = 7;
  graph::EdgeList edges;
  for (VertexId v = 1; v <= leaves; ++v) edges.push_back({0, v});
  const CSRGraph g = graph::build_csr(leaves + 1, edges);
  const auto bc = cpu::brandes(g).bc;
  EXPECT_NEAR(bc[0], static_cast<double>(leaves * (leaves - 1)), 1e-12);
  for (int v = 1; v <= leaves; ++v) EXPECT_NEAR(bc[v], 0.0, 1e-12);
}

TEST(Brandes, CompleteGraphAllZero) {
  // Every pair is adjacent: no intermediate vertices on shortest paths.
  graph::EdgeList edges;
  const int n = 6;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  const CSRGraph g = graph::build_csr(n, edges);
  for (double s : cpu::brandes(g).bc) EXPECT_NEAR(s, 0.0, 1e-12);
}

TEST(Brandes, CycleGraphUniform) {
  // Even cycle n=6: all vertices equivalent by symmetry.
  graph::EdgeList edges;
  const int n = 6;
  for (VertexId v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<VertexId>((v + 1) % n)});
  }
  const CSRGraph g = graph::build_csr(n, edges);
  const auto bc = cpu::brandes(g).bc;
  for (int v = 1; v < n; ++v) EXPECT_NEAR(bc[v], bc[0], 1e-12);
  expect_vectors_near(bc, cpu::naive_bc(g));
}

TEST(Brandes, EquivalentPathsSplitCredit) {
  // Diamond: 0-1, 0-2, 1-3, 2-3. Pair (0,3) splits across 1 and 2; pair
  // (1,2) splits across 0 and 3. Every vertex gets 0.5 per direction:
  // BC = 1 for all four — equal-length paths share credit.
  const CSRGraph g =
      graph::build_csr(4, std::vector<Edge>{{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const auto bc = cpu::brandes(g).bc;
  for (int v = 0; v < 4; ++v) EXPECT_NEAR(bc[v], 1.0, 1e-12) << v;
  expect_vectors_near(bc, cpu::naive_bc(g));
}

TEST(Brandes, DisconnectedComponentsIndependent) {
  // Two disjoint paths; scores must match the per-component values.
  const CSRGraph g = graph::build_csr(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const auto bc = cpu::brandes(g).bc;
  EXPECT_NEAR(bc[1], 2.0, 1e-12);
  EXPECT_NEAR(bc[4], 2.0, 1e-12);
  EXPECT_NEAR(bc[0], 0.0, 1e-12);
  expect_vectors_near(bc, cpu::naive_bc(g));
}

TEST(Brandes, MatchesNaiveOnRandomGraphs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const CSRGraph g =
        graph::gen::scale_free({.num_vertices = 60, .attach = 2, .seed = seed});
    expect_vectors_near(cpu::brandes(g).bc, cpu::naive_bc(g), 1e-7);
  }
}

TEST(Brandes, MatchesNaiveOnSparseRandomWithIsolated) {
  // kron-style graphs have isolated vertices; the oracle pair must agree.
  const CSRGraph g = graph::gen::kronecker({.scale = 6, .edge_factor = 2, .seed = 5});
  expect_vectors_near(cpu::brandes(g).bc, cpu::naive_bc(g), 1e-7);
}

TEST(Brandes, SourceSubsetAccumulatesPartialScores) {
  const CSRGraph g = graph::gen::figure1_graph();
  const auto full = cpu::brandes(g).bc;
  // Summing per-source contributions over all sources equals the full run.
  std::vector<double> acc(g.num_vertices(), 0.0);
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    cpu::BrandesResult r = cpu::brandes(g, {.sources = {s}});
    ASSERT_EQ(r.roots_processed, 1u);
    for (VertexId v = 0; v < g.num_vertices(); ++v) acc[v] += r.bc[v];
  }
  expect_vectors_near(acc, full);
}

TEST(Brandes, IgnoresOutOfRangeSources) {
  const CSRGraph g = graph::gen::figure1_graph();
  cpu::BrandesResult r = cpu::brandes(g, {.sources = {0, 100, 3}});
  EXPECT_EQ(r.roots_processed, 2u);
}

TEST(Brandes, ReportsTraversalStats) {
  const CSRGraph g = graph::gen::figure1_graph();
  cpu::BrandesResult r = cpu::brandes(g);
  EXPECT_EQ(r.roots_processed, g.num_vertices());
  // Connected graph: every root traverses all 2m directed edges.
  EXPECT_EQ(r.edges_traversed, g.num_directed_edges() * g.num_vertices());
  EXPECT_GE(r.max_depth_seen, 3u);
}

TEST(ParallelBrandes, MatchesSerial) {
  const auto g = graph::gen::small_world({.num_vertices = 300, .k = 3, .seed = 9});
  const auto serial = cpu::brandes(g).bc;
  for (std::size_t threads : {1u, 2u, 4u}) {
    const auto par = cpu::parallel_brandes(g, {.sources = {}, .num_threads = threads});
    EXPECT_EQ(par.roots_processed, g.num_vertices());
    expect_vectors_near(par.bc, serial, 1e-7);
  }
}

TEST(ParallelBrandes, SourceSubsetMatchesSerialSubset) {
  const auto g = graph::gen::scale_free({.num_vertices = 200, .attach = 2, .seed = 3});
  const std::vector<VertexId> subset{0, 5, 9, 100, 199};
  const auto serial = cpu::brandes(g, {.sources = subset});
  const auto par = cpu::parallel_brandes(g, {.sources = subset, .num_threads = 3});
  expect_vectors_near(par.bc, serial.bc, 1e-9);
  EXPECT_EQ(par.roots_processed, subset.size());
}

// --- locality-first relabel (cpu/parallel_brandes.hpp) ---------------------

void expect_relative_near(const std::vector<double>& a, const std::vector<double>& b,
                          double rel) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(std::abs(a[i] - b[i]), rel * std::max(std::abs(a[i]), std::abs(b[i])))
        << "index " << i << ": " << a[i] << " vs " << b[i];
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// parallel_brandes without the relabel rule: the same contiguous range
/// per worker, one brandes_single_source per root into the worker's
/// partial, partials summed in worker order.
std::vector<double> unrelabeled_parallel(const CSRGraph& g, std::vector<VertexId> sources,
                                         std::size_t threads) {
  const VertexId n = g.num_vertices();
  if (sources.empty()) {
    sources.resize(n);
    for (VertexId v = 0; v < n; ++v) sources[v] = v;
  }
  util::ThreadPool pool(threads);
  std::vector<std::vector<double>> partials(pool.thread_count(), std::vector<double>(n, 0.0));
  pool.parallel_ranges(sources.size(), [&](std::size_t tid, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (sources[i] < n) cpu::brandes_single_source(g, sources[i], partials[tid]);
    }
  });
  std::vector<double> bc(n, 0.0);
  for (const auto& p : partials) {
    for (VertexId v = 0; v < n; ++v) bc[v] += p[v];
  }
  return bc;
}

std::vector<VertexId> spread_roots(const CSRGraph& g, VertexId count) {
  std::vector<VertexId> roots;
  for (VertexId i = 0; i < count; ++i) {
    roots.push_back(static_cast<VertexId>(std::uint64_t{i} * g.num_vertices() / count));
  }
  return roots;
}

const CSRGraph& kron12() {
  static const CSRGraph g = graph::gen::kronecker({.scale = 12, .edge_factor = 8, .seed = 5});
  return g;
}

TEST(ParallelBrandesRelabel, KronMatchesSerialWithBatchAndAllRoots) {
  const CSRGraph& g = kron12();
  const std::vector<VertexId> batch = spread_roots(g, 96);
  ASSERT_TRUE(cpu::relabels_for(g, batch.size()));
  const auto serial_batch = cpu::brandes(g, {.sources = batch});
  const auto serial_all = cpu::brandes(g);
  for (std::size_t threads : {1u, 3u}) {
    const auto par = cpu::parallel_brandes(g, {.sources = batch, .num_threads = threads});
    EXPECT_EQ(par.roots_processed, batch.size());
    EXPECT_EQ(par.edges_traversed, serial_batch.edges_traversed);
    EXPECT_EQ(par.max_depth_seen, serial_batch.max_depth_seen);
    expect_relative_near(par.bc, serial_batch.bc, 1e-9);
  }
  const auto all = cpu::parallel_brandes(g, {.sources = {}, .num_threads = 4});
  EXPECT_EQ(all.roots_processed, g.num_vertices());
  expect_relative_near(all.bc, serial_all.bc, 1e-9);
}

TEST(ParallelBrandesRelabel, RepeatedCallsAreBitIdentical) {
  const CSRGraph& g = kron12();
  const std::vector<VertexId> batch = spread_roots(g, 128);
  ASSERT_TRUE(cpu::relabels_for(g, batch.size()));
  const auto first = cpu::parallel_brandes(g, {.sources = batch, .num_threads = 2}).bc;
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(same_bits(first,
                          cpu::parallel_brandes(g, {.sources = batch, .num_threads = 2}).bc));
  }
}

TEST(ParallelBrandesRelabel, CompressedBackingGivesSameBits) {
  const CSRGraph& g = kron12();
  const CSRGraph comp(graph::storage::CompressedStorage::compress(
      g.row_offsets(), g.col_indices(), g.undirected()));
  const std::vector<VertexId> batch = spread_roots(g, 64);
  ASSERT_TRUE(cpu::relabels_for(comp, batch.size()));
  const std::size_t resident = comp.storage()->resident_bytes();
  const auto heap = cpu::parallel_brandes(g, {.sources = batch, .num_threads = 2}).bc;
  EXPECT_TRUE(same_bits(heap,
                        cpu::parallel_brandes(comp, {.sources = batch, .num_threads = 2}).bc));
  // The call streamed the compressed adjacency and kept no decoded copy.
  EXPECT_EQ(comp.storage()->resident_bytes(), resident);
}

TEST(ParallelBrandesRelabel, UnskewedGraphsAndSmallCallsKeepTheirBits) {
  struct Case {
    const char* name;
    CSRGraph g;
    std::vector<VertexId> sources;  // empty = all vertices
  };
  const Case cases[] = {
      {"rgg", graph::gen::rgg({.scale = 10, .seed = 2}), {}},
      {"smallworld", graph::gen::small_world({.num_vertices = 1024, .k = 4, .seed = 2}), {}},
      {"kron, 63 roots", kron12(), spread_roots(kron12(), 63)},
  };
  for (const Case& c : cases) {
    const std::size_t roots = c.sources.empty() ? c.g.num_vertices() : c.sources.size();
    EXPECT_FALSE(cpu::relabels_for(c.g, roots)) << c.name;
    for (std::size_t threads : {1u, 2u, 3u}) {
      const auto par = cpu::parallel_brandes(c.g, {.sources = c.sources, .num_threads = threads});
      EXPECT_TRUE(same_bits(par.bc, unrelabeled_parallel(c.g, c.sources, threads)))
          << c.name << " at threads=" << threads;
      if (threads == 1) {
        EXPECT_TRUE(same_bits(par.bc, cpu::brandes(c.g, {.sources = c.sources}).bc)) << c.name;
      }
    }
  }
}

TEST(FineGrainedBrandes, MatchesSerialAcrossThreadCounts) {
  const auto g = graph::gen::kronecker({.scale = 8, .edge_factor = 8, .seed = 4});
  const auto serial = cpu::brandes(g).bc;
  for (std::size_t threads : {1u, 2u, 4u}) {
    const auto fine = cpu::fine_grained_brandes(g, {.sources = {}, .num_threads = threads});
    EXPECT_EQ(fine.roots_processed, g.num_vertices());
    expect_vectors_near(fine.bc, serial, 1e-7);
  }
}

TEST(FineGrainedBrandes, SourceSubsetAndStats) {
  const auto g = graph::gen::road({.scale = 10, .seed = 2});
  const std::vector<VertexId> subset{0, 7, 99};
  const auto serial = cpu::brandes(g, {.sources = subset});
  const auto fine = cpu::fine_grained_brandes(g, {.sources = subset, .num_threads = 2});
  expect_vectors_near(fine.bc, serial.bc, 1e-9);
  EXPECT_EQ(fine.roots_processed, 3u);
  EXPECT_EQ(fine.edges_traversed, serial.edges_traversed);
  EXPECT_EQ(fine.max_depth_seen, serial.max_depth_seen);
}

TEST(FineGrainedBrandes, IsolatedRootIsSafe) {
  const CSRGraph g = graph::build_csr(4, std::vector<Edge>{{0, 1}});
  const auto fine = cpu::fine_grained_brandes(g, {.sources = {3}, .num_threads = 2});
  for (double x : fine.bc) EXPECT_EQ(x, 0.0);
}

TEST(FineGrainedBrandes, DeterministicScores) {
  const auto g = graph::gen::small_world({.num_vertices = 256, .k = 4, .seed = 6});
  const auto a = cpu::fine_grained_brandes(g, {.sources = {}, .num_threads = 4});
  const auto b = cpu::fine_grained_brandes(g, {.sources = {}, .num_threads = 4});
  expect_vectors_near(a.bc, b.bc, 0.0);
}

TEST(NaiveOracle, PathCountsOnDiamond) {
  const CSRGraph g =
      graph::build_csr(4, std::vector<Edge>{{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const auto pc = cpu::count_paths(g, 0);
  EXPECT_DOUBLE_EQ(pc.sigma[0], 1.0);
  EXPECT_DOUBLE_EQ(pc.sigma[1], 1.0);
  EXPECT_DOUBLE_EQ(pc.sigma[2], 1.0);
  EXPECT_DOUBLE_EQ(pc.sigma[3], 2.0);  // two shortest paths 0->3
  EXPECT_EQ(pc.distance[3], 2u);
}

}  // namespace
