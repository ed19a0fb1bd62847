#include "cpu/approx.hpp"

#include <algorithm>

#include "cpu/brandes.hpp"
#include "graph/types.hpp"
#include "util/rng.hpp"

namespace hbc::cpu {

using graph::CSRGraph;
using graph::kInfDistance;
using graph::VertexId;

UniformApproxResult approximate_bc(const CSRGraph& g, const UniformApproxOptions& options) {
  const VertexId n = g.num_vertices();
  UniformApproxResult result;
  result.bc.assign(n, 0.0);
  if (n == 0) return result;

  const std::uint32_t pivots = std::min<std::uint32_t>(options.num_pivots, n);
  util::Xoshiro256 rng(options.seed);
  SingleSource single(g);

  // Pivots drawn uniformly *with* replacement, as in Brandes–Pich: the
  // estimator stays unbiased and the draw is O(1) per pivot.
  for (std::uint32_t k = 0; k < pivots; ++k) {
    const VertexId s = static_cast<VertexId>(rng.next_below(n));
    single.accumulate(s, result.bc);
    ++result.pivots_used;
  }

  const double scale = static_cast<double>(n) / static_cast<double>(pivots);
  for (double& x : result.bc) x *= scale;
  return result;
}

AdaptiveApproxResult adaptive_bc(const CSRGraph& g, VertexId target,
                                 const AdaptiveApproxOptions& options) {
  const VertexId n = g.num_vertices();
  AdaptiveApproxResult result;
  if (n == 0 || target >= n) return result;

  const double threshold = options.c * static_cast<double>(n);
  const std::uint32_t cap =
      options.max_pivots == 0 ? n : std::min<std::uint32_t>(options.max_pivots, n);
  util::Xoshiro256 rng(options.seed);
  SingleSource single(g);

  double accumulated = 0.0;
  std::uint32_t k = 0;
  while (k < cap) {
    const VertexId s = static_cast<VertexId>(rng.next_below(n));
    ++k;
    if (s == target) continue;  // delta_s(s) is by definition excluded
    accumulated += single.dependencies(s)[target];
    if (accumulated >= threshold) {
      result.threshold_hit = true;
      break;
    }
  }

  result.pivots_used = k;
  result.bc_estimate =
      k > 0 ? static_cast<double>(n) * accumulated / static_cast<double>(k) : 0.0;
  return result;
}

}  // namespace hbc::cpu
