#include "cpu/dynamic_bc.hpp"

#include <algorithm>
#include <stdexcept>

#include "cpu/brandes.hpp"
#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/types.hpp"

namespace hbc::cpu {

using graph::CSRGraph;
using graph::kInfDistance;
using graph::VertexId;

DynamicBC::DynamicBC(CSRGraph initial) : graph_(std::move(initial)) {
  if (!graph_.undirected()) {
    throw std::invalid_argument(
        "DynamicBC: directed graphs are not supported — the affected-source "
        "level test relies on d(s,u) == d(u,s) symmetry");
  }
  bc_ = brandes(graph_).bc;
}

CSRGraph DynamicBC::with_edge(const CSRGraph& g, VertexId u, VertexId v, bool present) {
  graph::EdgeList edges;
  edges.reserve(g.num_directed_edges() / 2 + 1);
  for (VertexId a = 0; a < g.num_vertices(); ++a) {
    for (VertexId b : g.neighbors(a)) {
      if (a < b && !(a == std::min(u, v) && b == std::max(u, v))) {
        edges.push_back({a, b});
      }
    }
  }
  if (present) edges.push_back({std::min(u, v), std::max(u, v)});
  return graph::build_csr(g.num_vertices(), edges);
}

bool DynamicBC::insert_edge(VertexId u, VertexId v) {
  if (u >= graph_.num_vertices() || v >= graph_.num_vertices()) {
    throw std::out_of_range("DynamicBC::insert_edge: vertex out of range");
  }
  if (u == v) return false;
  const auto nbrs = graph_.neighbors(u);
  if (std::binary_search(nbrs.begin(), nbrs.end(), v)) return false;

  CSRGraph after = with_edge(graph_, u, v, /*present=*/true);
  apply_update(u, v, graph_, after);
  graph_ = std::move(after);
  return true;
}

bool DynamicBC::remove_edge(VertexId u, VertexId v) {
  if (u >= graph_.num_vertices() || v >= graph_.num_vertices()) {
    throw std::out_of_range("DynamicBC::remove_edge: vertex out of range");
  }
  if (u == v) return false;
  const auto nbrs = graph_.neighbors(u);
  if (!std::binary_search(nbrs.begin(), nbrs.end(), v)) return false;

  CSRGraph after = with_edge(graph_, u, v, /*present=*/false);
  apply_update(u, v, graph_, after);
  graph_ = std::move(after);
  return true;
}

void DynamicBC::apply_update(VertexId u, VertexId v, const CSRGraph& before,
                             const CSRGraph& after) {
  // Affected-source test on the PRE-update graph: a source s whose BFS
  // places u and v on the same level (or leaves both unreachable) has no
  // shortest path using {u,v} before the update and gains/loses none
  // after it; its dependency vector is untouched.
  //
  // Why pre-update distances suffice for insertion too: if
  // d_old(s,u) == d_old(s,v) = L, the new edge connects two level-L
  // vertices. Any hypothetical new shortest path through it would need
  // d_new(s,u) + 1 <= d_new(s,v) (or symmetric); but the insertion can
  // only decrease distances via the edge itself, so d_new == d_old here
  // and the level-equality persists.
  const auto from_u = graph::bfs(before, u);
  const auto from_v = graph::bfs(before, v);

  ++stats_.updates;
  const VertexId n = before.num_vertices();
  SingleSource old_single(before);
  SingleSource new_single(after);
  for (VertexId s = 0; s < n; ++s) {
    // Undirected graphs: d(s, u) == d(u, s).
    const auto du = from_u.distance[s];
    const auto dv = from_v.distance[s];
    if (du == dv) {  // includes both-unreachable (inf == inf)
      ++stats_.sources_skipped;
      continue;
    }
    ++stats_.sources_recomputed;
    const auto old_delta = old_single.dependencies(s);
    const auto new_delta = new_single.dependencies(s);
    for (VertexId w = 0; w < n; ++w) {
      if (w == s) continue;
      bc_[w] += new_delta[w] - old_delta[w];
    }
  }
}

}  // namespace hbc::cpu
