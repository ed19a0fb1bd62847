#pragma once

// Coarse-grained multithreaded Brandes: the CPU analogue of the paper's
// one-root-per-SM mapping. The roots are split into one contiguous range
// per worker; each worker owns a private BC accumulator and one working
// set (cpu/brandes_impl.hpp's Workspace) that it reuses for all of its
// roots, resetting only the vertices the previous root reached. Partial
// vectors are reduced at the end in worker order (the same pattern the
// multi-GPU driver uses across devices).
//
// Locality-first relabel. The traversal is bound by memory locality, not
// arithmetic, so on skewed graphs a call first renumbers the vertices by
// non-increasing degree (graph::degree_order, ties by old id) and runs
// over a temporary heap CSR whose rows are sorted by new id
// (graph::relabel): hubs, which nearly every BFS touches, share cache
// lines, and each row is read in ascending address order. Roots are
// mapped into the new ids and the scores projected back. A call
// relabels only when both fixed rules hold:
//
//   * skew:  max degree >= kRelabelSkew (16) x mean degree. At 2^16 the
//            generators' kron graph is at about 350x and scale-free at
//            about 130x; rgg, road, small-world, mesh and Delaunay graphs
//            stay at or below 2.4x and never relabel;
//   * batch: the call has >= kRelabelMinRoots (64) roots, enough to repay
//            the O(n + m) copy.
//
// The copy is built from any backing (compressed ones stream, never
// materialize) and freed before the call returns, so nothing stays
// resident. A relabeled call sums in a different neighbor order, so its
// scores match an unrelabeled run to rounding (1e-9 relative), not
// bitwise; they are bitwise-identical across backings and repeated
// calls. A call that does not relabel is bitwise-identical to running
// the same roots without the rule.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpu/brandes.hpp"
#include "graph/csr.hpp"

namespace hbc::cpu {

/// Relabel rule constants (not options; see the header comment).
inline constexpr std::uint64_t kRelabelSkew = 16;
inline constexpr std::size_t kRelabelMinRoots = 64;

struct ParallelBrandesOptions {
  std::vector<graph::VertexId> sources;  // empty = all vertices
  std::size_t num_threads = 0;           // 0 = hardware concurrency
  /// Polled at each worker's source boundaries; the run throws
  /// util::Cancelled (from the calling thread) within one root per worker.
  util::CancelToken cancel;
};

/// Whether parallel_brandes relabels `g` for a call with `roots` roots.
bool relabels_for(const graph::CSRGraph& g, std::size_t roots);

BrandesResult parallel_brandes(const graph::CSRGraph& g,
                               const ParallelBrandesOptions& options = {});

}  // namespace hbc::cpu
