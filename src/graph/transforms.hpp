#pragma once

// Graph preprocessing transforms used before BC runs on real datasets:
//
//   * largest_component — restrict to the biggest connected component
//     (the paper's TEPS discussion in §V.D revolves around graphs whose
//     vertices "mostly belong to one large connected component");
//   * bfs_relabel — renumber vertices in BFS visit order, improving the
//     locality of frontier-driven access (a standard trick for the
//     scattered reads the work-efficient kernel performs);
//   * degree_sort_relabel — renumber by descending degree, the layout the
//     edge-parallel kernels prefer (hubs share cache lines early);
//   * induced_subgraph — keep an arbitrary vertex subset.
//
// Every transform returns the new graph plus the old-id mapping so scores
// can be projected back. All of them go through relabel(), an O(n + m)
// scatter that reads any backing (compressed ones stream, never
// materialize) and writes a heap CSR whose rows are sorted by new id.

#include <vector>

#include "graph/csr.hpp"

namespace hbc::graph {

struct RelabeledGraph {
  CSRGraph graph;
  /// new_to_old[new_id] == old_id. Vertices dropped by a subgraph
  /// transform simply do not appear.
  std::vector<VertexId> new_to_old;

  /// Project per-new-vertex scores back onto the original id space
  /// (missing vertices get 0).
  std::vector<double> project_back(std::vector<double> scores,
                                   VertexId original_n) const;
};

/// The graph with old vertex new_to_old[i] renamed i; vertices absent from
/// new_to_old are dropped with their edges. `new_to_old` must hold distinct
/// in-range ids. Each row is sorted by new id. The adjacency is otherwise
/// kept as stored, so for a simple graph (anything GraphBuilder built) the
/// result is byte-identical to rebuilding the relabeled edge list.
RelabeledGraph relabel(const CSRGraph& g, std::vector<VertexId> new_to_old);

/// new_to_old order by non-increasing degree, ties by old id: an
/// O(n + max degree) counting sort.
std::vector<VertexId> degree_order(const CSRGraph& g);

/// Induced subgraph on `keep` (old ids; duplicates ignored, order kept).
RelabeledGraph induced_subgraph(const CSRGraph& g, const std::vector<VertexId>& keep);

/// The largest connected component as its own graph.
RelabeledGraph largest_component(const CSRGraph& g);

/// Renumber in BFS order from `source` (unreached vertices keep relative
/// order after the reached ones).
RelabeledGraph bfs_relabel(const CSRGraph& g, VertexId source = 0);

/// Renumber by non-increasing degree; ties by old id.
RelabeledGraph degree_sort_relabel(const CSRGraph& g);

}  // namespace hbc::graph
