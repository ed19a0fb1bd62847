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
  SingleSource(g).accumulate(s, bc, stats);
}

std::vector<double> single_source_dependencies(const CSRGraph& g, VertexId s) {
  SingleSource single(g);
  const std::span<const double> delta = single.dependencies(s);
  return {delta.begin(), delta.end()};
}

SingleSource::SingleSource(const CSRGraph& g)
    : g_(g), ws_(std::make_unique<detail::Workspace>(g.num_vertices())) {}

SingleSource::~SingleSource() = default;

void SingleSource::accumulate(VertexId s, std::span<double> bc, BrandesResult* stats) {
  graph::visit_adjacency(g_, [&](const auto& adj) {
    detail::accumulate_root(adj, s, *ws_, bc, stats);
  });
}

std::span<const double> SingleSource::dependencies(VertexId s) {
  graph::visit_adjacency(g_, [&](const auto& adj) {
    detail::single_source(adj, s, *ws_, [](VertexId, double) {});
  });
  return ws_->delta;
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
