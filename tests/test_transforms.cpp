// Graph transforms: BC must be invariant under relabeling, the largest-
// component extraction must preserve in-component scores, and score
// projection must round-trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "cpu/brandes.hpp"
#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/storage/compressed.hpp"
#include "graph/transforms.hpp"

namespace {

using namespace hbc;
using graph::CSRGraph;
using graph::Edge;
using graph::VertexId;

/// The GraphBuilder rebuild the transforms used before graph::relabel():
/// the reference its O(n + m) scatter must reproduce byte for byte.
CSRGraph builder_rebuild(const CSRGraph& g, const std::vector<VertexId>& new_to_old) {
  std::vector<VertexId> old_to_new(g.num_vertices(), graph::kInvalidVertex);
  for (std::size_t new_id = 0; new_id < new_to_old.size(); ++new_id) {
    old_to_new[new_to_old[new_id]] = static_cast<VertexId>(new_id);
  }
  graph::GraphBuilder builder(static_cast<VertexId>(new_to_old.size()),
                              graph::BuildOptions{.symmetrize = g.undirected()});
  for (std::size_t new_id = 0; new_id < new_to_old.size(); ++new_id) {
    for (VertexId old_v : g.neighbors(new_to_old[new_id])) {
      const VertexId new_v = old_to_new[old_v];
      if (new_v == graph::kInvalidVertex) continue;
      if (!g.undirected() || new_id <= new_v) {
        builder.add_edge(static_cast<VertexId>(new_id), new_v);
      }
    }
  }
  return builder.build();
}

void expect_same_csr(const CSRGraph& a, const CSRGraph& b, const std::string& what) {
  EXPECT_EQ(a.undirected(), b.undirected()) << what;
  EXPECT_TRUE(std::ranges::equal(a.row_offsets(), b.row_offsets())) << what << " row offsets";
  EXPECT_TRUE(std::ranges::equal(a.col_indices(), b.col_indices())) << what << " columns";
}

TEST(Transforms, RelabelMatchesBuilderRebuild) {
  const std::pair<const char*, CSRGraph> graphs[] = {
      {"kron", graph::gen::kronecker({.scale = 10, .edge_factor = 8, .seed = 2})},
      {"rgg", graph::gen::rgg({.scale = 10, .seed = 2})},
      {"scalefree", graph::gen::scale_free({.num_vertices = 1024, .attach = 3, .seed = 2})},
  };
  for (const auto& [name, g] : graphs) {
    // degree_sort_relabel's counting sort gives the stable sort's order.
    std::vector<VertexId> by_degree(g.num_vertices());
    std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
    std::stable_sort(by_degree.begin(), by_degree.end(),
                     [&](VertexId a, VertexId b) { return g.degree(a) > g.degree(b); });
    const auto by_deg = graph::degree_sort_relabel(g);
    EXPECT_EQ(by_deg.new_to_old, by_degree) << name;
    expect_same_csr(by_deg.graph, builder_rebuild(g, by_degree),
                    std::string(name) + " degree sort");

    const auto by_bfs = graph::bfs_relabel(g, 3);
    expect_same_csr(by_bfs.graph, builder_rebuild(g, by_bfs.new_to_old),
                    std::string(name) + " bfs");

    const auto lcc = graph::largest_component(g);
    expect_same_csr(lcc.graph, builder_rebuild(g, lcc.new_to_old),
                    std::string(name) + " largest component");

    // A compressed backing streams into the same bytes.
    const CSRGraph comp(graph::storage::CompressedStorage::compress(
        g.row_offsets(), g.col_indices(), g.undirected()));
    expect_same_csr(graph::degree_sort_relabel(comp).graph, by_deg.graph,
                    std::string(name) + " compressed degree sort");
  }
}

TEST(Transforms, RelabelMatchesBuilderRebuildOnDirectedGraph) {
  graph::EdgeList edges;
  for (VertexId v = 0; v < 64; ++v) {
    edges.push_back({v, static_cast<VertexId>((v * 7 + 3) % 64)});
    edges.push_back({static_cast<VertexId>((v * 5 + 1) % 64), v});
    if (v % 4 == 0) edges.push_back({0, v});
  }
  const CSRGraph g = graph::build_csr(64, edges, {.symmetrize = false});
  ASSERT_FALSE(g.undirected());
  const auto by_deg = graph::degree_sort_relabel(g);
  expect_same_csr(by_deg.graph, builder_rebuild(g, by_deg.new_to_old), "directed degree sort");
  const auto sub = graph::induced_subgraph(g, {9, 0, 33, 4, 17, 60, 12});
  expect_same_csr(sub.graph, builder_rebuild(g, sub.new_to_old), "directed subgraph");
}

TEST(Transforms, BfsRelabelPreservesStructure) {
  const CSRGraph g = graph::gen::scale_free({.num_vertices = 200, .attach = 2, .seed = 3});
  const auto relabeled = graph::bfs_relabel(g, 5);
  EXPECT_EQ(relabeled.graph.num_vertices(), g.num_vertices());
  EXPECT_EQ(relabeled.graph.num_undirected_edges(), g.num_undirected_edges());

  // Degree sequence preserved per mapped vertex.
  for (VertexId new_id = 0; new_id < relabeled.graph.num_vertices(); ++new_id) {
    EXPECT_EQ(relabeled.graph.degree(new_id), g.degree(relabeled.new_to_old[new_id]));
  }
}

TEST(Transforms, BfsRelabelOrdersByDepth) {
  const CSRGraph g = graph::gen::delaunay_mesh({.scale = 8, .seed = 1});
  const auto relabeled = graph::bfs_relabel(g, 0);
  const auto dist = graph::bfs(g, 0).distance;
  for (VertexId new_id = 0; new_id + 1 < relabeled.graph.num_vertices(); ++new_id) {
    const auto da = dist[relabeled.new_to_old[new_id]];
    const auto db = dist[relabeled.new_to_old[new_id + 1]];
    if (da != graph::kInfDistance && db != graph::kInfDistance) {
      EXPECT_LE(da, db);
    }
  }
}

TEST(Transforms, RelabelingLeavesBCInvariant) {
  const CSRGraph g = graph::gen::small_world({.num_vertices = 150, .k = 3, .seed = 2});
  const auto exact = cpu::brandes(g).bc;
  for (const auto& relabeled :
       {graph::bfs_relabel(g, 7), graph::degree_sort_relabel(g)}) {
    const auto bc_new = cpu::brandes(relabeled.graph).bc;
    const auto projected = relabeled.project_back(bc_new, g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_NEAR(projected[v], exact[v], 1e-7) << "vertex " << v;
    }
  }
}

TEST(Transforms, DegreeSortIsMonotone) {
  const CSRGraph g = graph::gen::scale_free({.num_vertices = 128, .attach = 3, .seed = 1});
  const auto relabeled = graph::degree_sort_relabel(g);
  for (VertexId v = 0; v + 1 < relabeled.graph.num_vertices(); ++v) {
    EXPECT_GE(relabeled.graph.degree(v), relabeled.graph.degree(v + 1));
  }
}

TEST(Transforms, LargestComponentExtractsBiggest) {
  // 3-path + 5-cycle + isolated vertex: the cycle wins.
  graph::EdgeList edges{{0, 1}, {1, 2}};
  for (VertexId v = 3; v < 8; ++v) {
    edges.push_back({v, static_cast<VertexId>(v == 7 ? 3 : v + 1)});
  }
  const CSRGraph g = graph::build_csr(9, edges);
  const auto lcc = graph::largest_component(g);
  EXPECT_EQ(lcc.graph.num_vertices(), 5u);
  EXPECT_EQ(lcc.graph.num_undirected_edges(), 5u);
  EXPECT_TRUE(graph::is_connected(lcc.graph));
  for (VertexId old_id : lcc.new_to_old) {
    EXPECT_GE(old_id, 3u);
    EXPECT_LE(old_id, 7u);
  }
}

TEST(Transforms, LargestComponentBCMatchesFullGraph) {
  // BC of vertices inside a component is unaffected by other components.
  const CSRGraph g = graph::build_csr(
      8, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {5, 6}});
  const auto full = cpu::brandes(g).bc;
  const auto lcc = graph::largest_component(g);
  const auto sub = cpu::brandes(lcc.graph).bc;
  const auto projected = lcc.project_back(sub, g.num_vertices());
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_NEAR(projected[v], full[v], 1e-9) << "vertex " << v;
  }
}

TEST(Transforms, InducedSubgraphKeepsOnlyInternalEdges) {
  const CSRGraph g = graph::gen::figure1_graph();
  const auto sub = graph::induced_subgraph(g, {0, 1, 2, 3});
  EXPECT_EQ(sub.graph.num_vertices(), 4u);
  // Edges among paper vertices 1..4: 1-2, 2-3, 1-4, 3-4.
  EXPECT_EQ(sub.graph.num_undirected_edges(), 4u);
}

TEST(Transforms, InducedSubgraphIgnoresDuplicatesAndOutOfRange) {
  const CSRGraph g = graph::gen::figure1_graph();
  const auto sub = graph::induced_subgraph(g, {2, 2, 3, 100, 3});
  EXPECT_EQ(sub.graph.num_vertices(), 2u);
  EXPECT_EQ(sub.new_to_old, (std::vector<VertexId>{2, 3}));
  EXPECT_EQ(sub.graph.num_undirected_edges(), 1u);  // 3-4 in paper ids
}

TEST(Transforms, ProjectBackFillsMissingWithZero) {
  const CSRGraph g = graph::gen::figure1_graph();
  const auto sub = graph::induced_subgraph(g, {4, 6});
  const auto projected = sub.project_back({1.5, 2.5}, g.num_vertices());
  ASSERT_EQ(projected.size(), g.num_vertices());
  EXPECT_DOUBLE_EQ(projected[4], 1.5);
  EXPECT_DOUBLE_EQ(projected[6], 2.5);
  double total = std::accumulate(projected.begin(), projected.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 4.0);
}

}  // namespace
