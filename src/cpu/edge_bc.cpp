#include "cpu/edge_bc.hpp"

#include <algorithm>
#include <span>

#include "cpu/brandes_impl.hpp"
#include "graph/types.hpp"

namespace hbc::cpu {

using graph::CSRGraph;
using graph::EdgeOffset;
using graph::VertexId;

EdgeBCResult edge_betweenness(const CSRGraph& g, const std::vector<VertexId>& sources) {
  const VertexId n = g.num_vertices();
  EdgeBCResult result;
  result.edge_bc.assign(g.num_directed_edges(), 0.0);
  result.vertex_bc.assign(n, 0.0);

  // Per-edge policy: successor edge k of w is directed edge row_offsets[w] + k.
  struct EdgePolicy {
    std::vector<double>& vertex_bc;
    std::vector<double>& edge_bc;
    std::span<const EdgeOffset> offsets;
    VertexId s;
    void operator()(VertexId w, double dw) {
      if (w != s) vertex_bc[w] += dw;
    }
    // Edge (w -> its k-th neighbor) carries this much s-dependency.
    void edge(VertexId w, std::size_t k, double c) { edge_bc[offsets[w] + k] += c; }
  };

  detail::Workspace ws(n);
  auto run_source = [&](VertexId s) {
    detail::single_source(g, s, ws,
                          EdgePolicy{result.vertex_bc, result.edge_bc, g.row_offsets(), s});
  };

  if (sources.empty()) {
    for (VertexId s = 0; s < n; ++s) run_source(s);
  } else {
    for (VertexId s : sources) {
      if (s < n) run_source(s);
    }
  }

  // Undirected graphs: the score of {u,v} accumulated on slot (u->v) for
  // sources on u's side and on (v->u) for the other side; mirror the sum
  // so both slots report the full undirected edge score.
  if (g.undirected()) {
    const auto offsets = g.row_offsets();
    const auto cols = g.col_indices();
    std::vector<double> mirrored = result.edge_bc;
    for (VertexId u = 0; u < n; ++u) {
      for (EdgeOffset e = offsets[u]; e < offsets[u + 1]; ++e) {
        const VertexId v = cols[e];
        const EdgeOffset back = find_edge_slot(g, v, u);
        if (back < g.num_directed_edges()) {
          mirrored[e] = result.edge_bc[e] + result.edge_bc[back];
        }
      }
    }
    result.edge_bc = std::move(mirrored);
  }
  return result;
}

EdgeOffset find_edge_slot(const CSRGraph& g, VertexId u, VertexId v) {
  const auto offsets = g.row_offsets();
  const auto cols = g.col_indices();
  const auto begin = cols.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
  const auto end = cols.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
  // Builder sorts adjacency lists; fall back to linear scan otherwise.
  auto it = std::lower_bound(begin, end, v);
  if (it != end && *it == v) {
    return static_cast<EdgeOffset>(it - cols.begin());
  }
  it = std::find(begin, end, v);
  if (it != end) return static_cast<EdgeOffset>(it - cols.begin());
  return g.num_directed_edges();
}

}  // namespace hbc::cpu
