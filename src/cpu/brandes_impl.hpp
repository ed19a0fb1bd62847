#pragma once

// The one single-source Brandes traversal of the CPU engines. It is
// written once against the minimal graph concept of graph/adjacency.hpp
// and instantiated over the span-backed CSRGraph facade and over
// storage::CompressedStorage's streaming decode view. Neighbor order is
// the stored order in every instantiation, which keeps the floating-point
// accumulation order, and therefore the scores, bitwise-identical per
// backing.
//
// What a root's dependencies feed is the caller's accumulate policy:
// cpu::brandes and cpu::parallel_brandes add them into a BC vector,
// single_source_dependencies keeps the delta vector, and edge_betweenness
// also takes each successor edge's share.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "cpu/brandes.hpp"
#include "graph/types.hpp"

namespace hbc::cpu::detail {

/// Per-root working set, owned by the caller and reused across roots.
/// Only the vertices the previous root reached are reset, so a root costs
/// O(reached vertices + their edges) rather than an O(n) allocate-and-fill.
/// After single_source() returns, d, sigma and delta hold that root's
/// values (unreached vertices: kInfDistance, 0, 0).
struct Workspace {
  explicit Workspace(graph::VertexId n)
      : d(n, graph::kInfDistance), sigma(n, 0.0), delta(n, 0.0) {
    order.reserve(n);
  }

  /// BFS depth of the last root's deepest vertex.
  std::uint32_t depth() const { return order.empty() ? 0 : d[order.back()]; }

  std::vector<std::uint32_t> d;
  std::vector<double> sigma;
  std::vector<double> delta;
  std::vector<graph::VertexId> order;  // BFS visit order (the stack S)
};

/// Forward BFS with path counting from `s`, then successor-form dependency
/// accumulation in reverse BFS order. `policy(w, delta_s(w))` is called
/// once per reached vertex, s included, as its dependency becomes final;
/// a policy with an `edge(w, k, c)` member is also told the share `c`
/// of w's k-th neighbor (a successor) in w's dependency.
/// Returns the number of edges the forward stage traversed.
template <class G, class Policy>
std::uint64_t single_source(const G& g, graph::VertexId s, Workspace& ws, Policy&& policy) {
  using graph::kInfDistance;
  using graph::VertexId;
  auto& d = ws.d;
  auto& sigma = ws.sigma;
  auto& delta = ws.delta;
  auto& order = ws.order;

  for (const VertexId v : order) {
    d[v] = kInfDistance;
    sigma[v] = 0.0;
    delta[v] = 0.0;
  }
  order.clear();

  d[s] = 0;
  sigma[s] = 1.0;
  order.push_back(s);

  // Forward: BFS with path counting.
  std::size_t head = 0;
  std::uint64_t traversed = 0;
  while (head < order.size()) {
    const VertexId v = order[head++];
    const std::uint32_t dv = d[v];
    for (const VertexId w : g.neighbors(v)) {
      ++traversed;
      if (d[w] == kInfDistance) {
        d[w] = dv + 1;
        order.push_back(w);
      }
      if (d[w] == dv + 1) {
        sigma[w] += sigma[v];
      }
    }
  }

  // Backward: successor-form dependency accumulation in reverse BFS order.
  constexpr bool kPerEdge =
      requires(std::remove_reference_t<Policy>& p, VertexId w, std::size_t k, double c) {
        p.edge(w, k, c);
      };
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const VertexId w = *it;
    const std::uint32_t dw = d[w];
    double dsw = 0.0;
    [[maybe_unused]] std::size_t k = 0;
    for (const VertexId v : g.neighbors(w)) {
      if (d[v] == dw + 1) {
        const double c = (sigma[w] / sigma[v]) * (1.0 + delta[v]);
        dsw += c;
        if constexpr (kPerEdge) policy.edge(w, k, c);
      }
      if constexpr (kPerEdge) ++k;
    }
    delta[w] = dsw;
    policy(w, dsw);
  }
  return traversed;
}

/// One root of exact BC: adds delta_s(w) into bc[w] for every w != s.
template <class G>
void accumulate_root(const G& g, graph::VertexId s, Workspace& ws, std::span<double> bc,
                     BrandesResult* stats) {
  const std::uint64_t traversed = single_source(g, s, ws, [&](graph::VertexId w, double dw) {
    if (w != s) bc[w] += dw;
  });
  if (stats != nullptr) {
    stats->edges_traversed += traversed;
    stats->max_depth_seen = std::max(stats->max_depth_seen, ws.depth());
  }
}

}  // namespace hbc::cpu::detail
