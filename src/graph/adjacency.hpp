#pragma once

// One dispatch on the backing for code written against the minimal
// traversal concept
//
//   VertexId num_vertices() const;
//   <forward range of VertexId> neighbors(VertexId v) const;
//
// Compressed backings get storage::CompressedStorage's streaming decode
// view, so the adjacency is never materialized; raw backings (heap,
// mapped) get the CSRGraph's contiguous spans. Both yield every row in the
// stored order, so a traversal instantiated over either reads the same
// neighbors in the same order and produces the same bits.

#include <utility>

#include "graph/csr.hpp"
#include "graph/storage/compressed.hpp"

namespace hbc::graph {

template <class Fn>
decltype(auto) visit_adjacency(const CSRGraph& g, Fn&& fn) {
  if (storage::is_compressed(g.residency())) {
    if (const auto* cs =
            dynamic_cast<const storage::CompressedStorage*>(g.storage().get())) {
      return std::forward<Fn>(fn)(cs->stream_view());
    }
  }
  return std::forward<Fn>(fn)(g);
}

}  // namespace hbc::graph
