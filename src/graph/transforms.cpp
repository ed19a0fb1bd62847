#include "graph/transforms.hpp"

#include <algorithm>
#include <numeric>

#include "graph/adjacency.hpp"
#include "graph/algorithms.hpp"
#include "graph/types.hpp"

namespace hbc::graph {

std::vector<double> RelabeledGraph::project_back(std::vector<double> scores,
                                                 VertexId original_n) const {
  std::vector<double> out(original_n, 0.0);
  const std::size_t limit = std::min(scores.size(), new_to_old.size());
  for (std::size_t new_id = 0; new_id < limit; ++new_id) {
    if (new_to_old[new_id] < original_n) {
      out[new_to_old[new_id]] = scores[new_id];
    }
  }
  return out;
}

namespace {

struct Rows {
  std::vector<EdgeOffset> offsets;
  std::vector<VertexId> cols;
};

/// Transpose by scatter over k vertices: `each(u, emit)` emits the (new)
/// id of every out-neighbor of new vertex u, kInvalidVertex for a dropped
/// one. Sources are visited in ascending id, so every output row comes out
/// sorted — no per-row sort. O(k + m).
template <class Each>
Rows transpose(VertexId k, Each&& each) {
  Rows t;
  t.offsets.assign(static_cast<std::size_t>(k) + 1, 0);
  for (VertexId u = 0; u < k; ++u) {
    each(u, [&](VertexId w) {
      if (w != kInvalidVertex) ++t.offsets[w + 1];
    });
  }
  std::partial_sum(t.offsets.begin(), t.offsets.end(), t.offsets.begin());
  t.cols.resize(t.offsets[k]);
  std::vector<EdgeOffset> next(t.offsets.begin(), t.offsets.end() - 1);
  for (VertexId u = 0; u < k; ++u) {
    each(u, [&](VertexId w) {
      if (w != kInvalidVertex) t.cols[next[w]++] = u;
    });
  }
  return t;
}

}  // namespace

RelabeledGraph relabel(const CSRGraph& g, std::vector<VertexId> new_to_old) {
  const auto k = static_cast<VertexId>(new_to_old.size());
  std::vector<VertexId> old_to_new(g.num_vertices(), kInvalidVertex);
  for (VertexId new_id = 0; new_id < k; ++new_id) old_to_new[new_to_old[new_id]] = new_id;

  // One scatter gives each new vertex its in-neighbors, which for the
  // symmetric adjacency of an undirected graph are its neighbors.
  Rows t = visit_adjacency(g, [&](const auto& adj) {
    return transpose(k, [&](VertexId u, auto&& emit) {
      for (const VertexId v : adj.neighbors(new_to_old[u])) emit(old_to_new[v]);
    });
  });
  // A directed graph needs the transpose of that transpose.
  if (!g.undirected()) {
    t = transpose(k, [&](VertexId u, auto&& emit) {
      for (EdgeOffset e = t.offsets[u]; e < t.offsets[u + 1]; ++e) emit(t.cols[e]);
    });
  }
  return {CSRGraph(std::move(t.offsets), std::move(t.cols), g.undirected()),
          std::move(new_to_old)};
}

std::vector<VertexId> degree_order(const CSRGraph& g) {
  // Counting sort on rank = max_degree - degree: non-increasing degree,
  // and the ascending scatter keeps ties in old-id order.
  const VertexId n = g.num_vertices();
  const VertexId top = g.max_degree();
  std::vector<VertexId> start(static_cast<std::size_t>(top) + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++start[top - g.degree(v) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<VertexId> order(n);
  for (VertexId v = 0; v < n; ++v) order[start[top - g.degree(v)]++] = v;
  return order;
}

RelabeledGraph induced_subgraph(const CSRGraph& g, const std::vector<VertexId>& keep) {
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<VertexId> new_to_old;
  new_to_old.reserve(keep.size());
  for (VertexId v : keep) {
    if (v < g.num_vertices() && !seen[v]) {
      seen[v] = true;
      new_to_old.push_back(v);
    }
  }
  return relabel(g, std::move(new_to_old));
}

RelabeledGraph largest_component(const CSRGraph& g) {
  const ComponentsResult cc = connected_components(g);
  VertexId best = 0;
  for (VertexId c = 0; c < cc.num_components; ++c) {
    if (cc.sizes[c] > cc.sizes[best]) best = c;
  }
  std::vector<VertexId> keep;
  keep.reserve(cc.largest_size);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (cc.component[v] == best) keep.push_back(v);
  }
  return relabel(g, std::move(keep));
}

RelabeledGraph bfs_relabel(const CSRGraph& g, VertexId source) {
  if (g.num_vertices() == 0) return {CSRGraph({0}, {}, g.undirected()), {}};
  const BFSResult r = bfs(g, std::min<VertexId>(source, g.num_vertices() - 1));

  // Reached vertices in BFS order first, then the rest in old order.
  std::vector<VertexId> new_to_old;
  new_to_old.reserve(g.num_vertices());
  std::vector<std::pair<std::uint32_t, VertexId>> reached;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (r.distance[v] != kInfDistance) reached.emplace_back(r.distance[v], v);
  }
  std::stable_sort(reached.begin(), reached.end());
  for (const auto& [depth, v] : reached) new_to_old.push_back(v);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (r.distance[v] == kInfDistance) new_to_old.push_back(v);
  }
  return relabel(g, std::move(new_to_old));
}

RelabeledGraph degree_sort_relabel(const CSRGraph& g) {
  return relabel(g, degree_order(g));
}

}  // namespace hbc::graph
