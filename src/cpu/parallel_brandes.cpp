#include "cpu/parallel_brandes.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "cpu/brandes_impl.hpp"
#include "graph/adjacency.hpp"
#include "graph/transforms.hpp"
#include "util/thread_pool.hpp"

namespace hbc::cpu {

using graph::CSRGraph;
using graph::VertexId;

namespace {

template <class G>
BrandesResult run_roots(const G& g, std::span<const VertexId> sources,
                        const ParallelBrandesOptions& options) {
  const VertexId n = g.num_vertices();
  util::ThreadPool pool(options.num_threads);
  const std::size_t workers = pool.thread_count();

  std::vector<BrandesResult> partials(workers);
  for (auto& p : partials) p.bc.assign(n, 0.0);

  pool.parallel_ranges(sources.size(), [&](std::size_t tid, std::size_t begin, std::size_t end) {
    BrandesResult& local = partials[tid];
    detail::Workspace ws(begin < end ? n : 0);
    for (std::size_t i = begin; i < end; ++i) {
      // Pool tasks must not throw; bail at the root boundary and let the
      // calling thread raise Cancelled after the join below.
      if (options.cancel.cancelled()) return;
      const VertexId s = sources[i];
      if (s >= n) continue;
      detail::accumulate_root(g, s, ws, local.bc, &local);
      ++local.roots_processed;
    }
  });
  options.cancel.check();

  BrandesResult result;
  result.bc.assign(n, 0.0);
  for (const auto& p : partials) {
    for (VertexId v = 0; v < n; ++v) result.bc[v] += p.bc[v];
    result.roots_processed += p.roots_processed;
    result.edges_traversed += p.edges_traversed;
    result.max_depth_seen = std::max(result.max_depth_seen, p.max_depth_seen);
  }
  return result;
}

}  // namespace

bool relabels_for(const CSRGraph& g, std::size_t roots) {
  // max degree >= kRelabelSkew * (m / n), in integers.
  return roots >= kRelabelMinRoots && g.num_directed_edges() > 0 &&
         std::uint64_t{g.max_degree()} * g.num_vertices() >=
             kRelabelSkew * g.num_directed_edges();
}

BrandesResult parallel_brandes(const CSRGraph& g, const ParallelBrandesOptions& options) {
  const VertexId n = g.num_vertices();

  std::vector<VertexId> sources = options.sources;
  if (sources.empty()) {
    sources.resize(n);
    std::iota(sources.begin(), sources.end(), VertexId{0});
  }

  if (!relabels_for(g, sources.size())) {
    return graph::visit_adjacency(
        g, [&](const auto& adj) { return run_roots(adj, sources, options); });
  }

  // Locality-first path (see the header): run over a degree-sorted heap
  // copy that lives only for this call.
  const graph::RelabeledGraph r = graph::relabel(g, graph::degree_order(g));
  std::vector<VertexId> old_to_new(n);
  for (VertexId new_id = 0; new_id < n; ++new_id) old_to_new[r.new_to_old[new_id]] = new_id;
  for (VertexId& s : sources) {
    if (s < n) s = old_to_new[s];
  }
  BrandesResult result = run_roots(r.graph, sources, options);
  result.bc = r.project_back(std::move(result.bc), n);
  return result;
}

}  // namespace hbc::cpu
