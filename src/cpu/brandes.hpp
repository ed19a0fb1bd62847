#pragma once

// Serial Brandes algorithm (Brandes 2001) — the exact-BC oracle every
// GPU-model kernel is validated against, and the per-node CPU baseline.
//
// Matches the paper's conventions: unweighted BFS shortest paths, the
// successor form of the dependency accumulation, and no halving — for an
// undirected graph each unordered pair {s,t} contributes twice (once per
// direction), so callers who want the "count each pair once" convention
// divide by 2 (core/bc.hpp offers this as an option).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "util/cancel.hpp"

namespace hbc::cpu {

struct BrandesOptions {
  /// Restrict the computation to these source vertices (empty = all).
  /// This is exactly the paper's root-subset mechanism used for
  /// approximation and for multi-GPU work distribution.
  std::vector<graph::VertexId> sources;
  /// Polled before each source; throws util::Cancelled within one root.
  util::CancelToken cancel;
};

struct BrandesResult {
  std::vector<double> bc;
  std::uint64_t roots_processed = 0;
  std::uint64_t edges_traversed = 0;  // useful traversals (forward stage)
  std::uint32_t max_depth_seen = 0;
};

BrandesResult brandes(const graph::CSRGraph& g, const BrandesOptions& options = {});

/// Single-source stage pair: computes the dependency vector delta for
/// source s and accumulates it into bc (bc[s] excluded). Exposed for
/// tests that verify per-source invariants.
void brandes_single_source(const graph::CSRGraph& g, graph::VertexId s,
                           std::span<double> bc, BrandesResult* stats = nullptr);

/// The dependency vector delta_s(v) for all v (without accumulation).
std::vector<double> single_source_dependencies(const graph::CSRGraph& g,
                                               graph::VertexId s);

namespace detail {
struct Workspace;
}

/// The two single-source entry points above over one working set that is
/// reused from root to root, so a run of roots costs O(reached) per root
/// instead of an O(n) allocate-and-fill. Bits equal the one-shot calls.
/// Used by the approximation estimators and the dynamic updaters; one per
/// thread. `g` must outlive it.
class SingleSource {
 public:
  explicit SingleSource(const graph::CSRGraph& g);
  ~SingleSource();
  SingleSource(const SingleSource&) = delete;
  SingleSource& operator=(const SingleSource&) = delete;

  /// brandes_single_source(g, s, bc, stats).
  void accumulate(graph::VertexId s, std::span<double> bc,
                  BrandesResult* stats = nullptr);
  /// single_source_dependencies(g, s); valid until the next call.
  std::span<const double> dependencies(graph::VertexId s);

 private:
  const graph::CSRGraph& g_;
  std::unique_ptr<detail::Workspace> ws_;
};

}  // namespace hbc::cpu
