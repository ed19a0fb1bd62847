#include "cpu/fine_grained.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>

#include "graph/types.hpp"
#include "util/thread_pool.hpp"

namespace hbc::cpu {

using graph::CSRGraph;
using graph::kInfDistance;
using graph::VertexId;

// Storage note: this engine deliberately stays on the contiguous-span
// path (g.neighbors()) rather than the streaming decode the serial/
// parallel Brandes engines use for compressed backings — its workers
// race over shared frontiers, and per-iterator decode state would defeat
// the level-synchronous chunking. A compressed-backed graph materializes
// its adjacency once on first touch (CSRGraph facade) and is then
// identical to heap.

namespace {

/// Working set shared by all threads for one source.
struct SharedState {
  explicit SharedState(VertexId n)
      : d(n), sigma(n, 0.0), delta(n, 0.0) {
    for (auto& x : d) x.store(kInfDistance, std::memory_order_relaxed);
  }

  /// Only the previous root's reached vertices (its stack) were written,
  /// so only they are reset: O(reached) per root, not O(n).
  void reset(std::span<const VertexId> reached) {
    for (const VertexId v : reached) {
      d[v].store(kInfDistance, std::memory_order_relaxed);
      sigma[v] = 0.0;
      delta[v] = 0.0;
    }
  }

  std::vector<std::atomic<std::uint32_t>> d;
  std::vector<double> sigma;
  std::vector<double> delta;
};

}  // namespace

BrandesResult fine_grained_brandes(const CSRGraph& g, const FineGrainedOptions& options) {
  const VertexId n = g.num_vertices();
  BrandesResult result;
  result.bc.assign(n, 0.0);

  std::vector<VertexId> sources = options.sources;
  if (sources.empty()) {
    sources.resize(n);
    std::iota(sources.begin(), sources.end(), VertexId{0});
  }

  util::ThreadPool pool(options.num_threads);
  const std::size_t workers = std::max<std::size_t>(1, pool.thread_count());

  SharedState state(n);
  std::vector<VertexId> frontier;
  std::vector<VertexId> stack;           // S: all reached, level by level
  std::vector<std::uint64_t> ends{0, 1};  // level index into the stack
  std::vector<std::vector<VertexId>> local_next(workers);

  for (const VertexId s : sources) {
    if (s >= n) continue;
    // Root boundary (the outer loop runs on the calling thread; the pool
    // only splits levels, so throwing here never crosses a pool task).
    options.cancel.check();
    state.reset(stack);
    frontier.assign(1, s);
    stack.assign(1, s);
    ends.assign({0, 1});
    state.d[s].store(0, std::memory_order_relaxed);
    state.sigma[s] = 1.0;

    // Forward: level-synchronous cooperative BFS. Discovery uses CAS on
    // d; sigma for the NEW level is then gathered owner-side from
    // parents (race-free, order-independent).
    std::uint32_t depth = 0;
    std::uint64_t traversed = 0;
    while (!frontier.empty()) {
      for (auto& buf : local_next) buf.clear();
      std::atomic<std::uint64_t> level_edges{0};

      pool.parallel_ranges(frontier.size(), [&](std::size_t tid, std::size_t begin,
                                                std::size_t end) {
        auto& next = local_next[tid];
        std::uint64_t edges = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const VertexId v = frontier[i];
          for (VertexId w : g.neighbors(v)) {
            ++edges;
            std::uint32_t expected = kInfDistance;
            if (state.d[w].compare_exchange_strong(expected, depth + 1,
                                                   std::memory_order_relaxed)) {
              next.push_back(w);
            }
          }
        }
        level_edges.fetch_add(edges, std::memory_order_relaxed);
      });
      traversed += level_edges.load(std::memory_order_relaxed);

      frontier.clear();
      for (const auto& buf : local_next) {
        frontier.insert(frontier.end(), buf.begin(), buf.end());
      }
      if (frontier.empty()) break;
      ++depth;

      // Sigma gather for the new level: each w sums its parents' sigma.
      // Owner-writes => no atomics, and the value is independent of
      // discovery order.
      pool.parallel_ranges(frontier.size(), [&](std::size_t, std::size_t begin,
                                                std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const VertexId w = frontier[i];
          double acc = 0.0;
          for (VertexId v : g.neighbors(w)) {
            if (state.d[v].load(std::memory_order_relaxed) == depth - 1) {
              acc += state.sigma[v];
            }
          }
          state.sigma[w] = acc;
        }
      });

      stack.insert(stack.end(), frontier.begin(), frontier.end());
      ends.push_back(stack.size());
    }
    result.max_depth_seen = std::max(result.max_depth_seen, depth);
    result.edges_traversed += traversed;

    // Backward: per level, threads split the S-slice; each w accumulates
    // from successors (the Madduri et al. scheme the paper adopts).
    for (std::size_t level = ends.size() - 1; level-- > 1;) {
      const std::uint64_t begin = ends[level - 1];
      const std::uint64_t count = ends[level] - begin;
      pool.parallel_ranges(count, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const VertexId w = stack[begin + i];
          const std::uint32_t dw =
              state.d[w].load(std::memory_order_relaxed);
          double dsw = 0.0;
          for (VertexId v : g.neighbors(w)) {
            if (state.d[v].load(std::memory_order_relaxed) == dw + 1) {
              dsw += (state.sigma[w] / state.sigma[v]) * (1.0 + state.delta[v]);
            }
          }
          state.delta[w] = dsw;
        }
      });
    }

    for (const VertexId v : stack) {
      if (v != s) result.bc[v] += state.delta[v];
    }
    ++result.roots_processed;
  }
  return result;
}

}  // namespace hbc::cpu
