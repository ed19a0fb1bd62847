#include "cpu/brandes.hpp"

#include "cpu/brandes_impl.hpp"
#include "graph/adjacency.hpp"
#include "graph/types.hpp"

namespace hbc::cpu {

using graph::CSRGraph;
using graph::VertexId;

// Every entry point dispatches once on the backing (graph/adjacency.hpp):
// compressed storages get the streaming decode instantiation, raw
// backings the contiguous-span one, with bitwise-identical scores.

void brandes_single_source(const CSRGraph& g, VertexId s, std::span<double> bc,
                           BrandesResult* stats) {
  graph::visit_adjacency(g, [&](const auto& adj) {
    detail::Workspace ws(g.num_vertices());
    detail::accumulate_root(adj, s, ws, bc, stats);
  });
}

std::vector<double> single_source_dependencies(const CSRGraph& g, VertexId s) {
  detail::Workspace ws(g.num_vertices());
  graph::visit_adjacency(
      g, [&](const auto& adj) { detail::single_source(adj, s, ws, [](VertexId, double) {}); });
  return std::move(ws.delta);
}

BrandesResult brandes(const CSRGraph& g, const BrandesOptions& options) {
  const VertexId n = g.num_vertices();
  BrandesResult result;
  result.bc.assign(n, 0.0);

  graph::visit_adjacency(g, [&](const auto& adj) {
    detail::Workspace ws(n);
    auto root = [&](VertexId s) {
      options.cancel.check();
      detail::accumulate_root(adj, s, ws, result.bc, &result);
      ++result.roots_processed;
    };
    if (options.sources.empty()) {
      for (VertexId s = 0; s < n; ++s) root(s);
    } else {
      for (VertexId s : options.sources) {
        if (s < n) root(s);
      }
    }
  });
  return result;
}

}  // namespace hbc::cpu
