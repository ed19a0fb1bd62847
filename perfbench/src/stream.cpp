#include "stream.hpp"

#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

// Independent keys per use, so the placement of the warm repeat, the warm
// pick and the per-request seeds do not correlate.
constexpr std::uint64_t kPlaceKey = 0x243f6a8885a308d3ULL;
constexpr std::uint64_t kPickKey = 0x13198a2e03707344ULL;

}  // namespace

RequestStream::RequestStream(StreamConfig config) : cfg_(std::move(config)) {
  if (cfg_.cold_strategies.empty()) {
    throw std::invalid_argument("request stream needs at least one strategy");
  }
}

StreamEntry RequestStream::warm(std::uint32_t warm_index) const {
  StreamEntry e;
  e.strategy = cfg_.cold_strategies[warm_index % cfg_.cold_strategies.size()];
  e.sample_roots = cfg_.sample_roots;
  // Odd pre-images for warm seeds, even ones for cold seeds: mix64 is a
  // bijection, so no cold request can share a warm entry's seed.
  e.seed = mix64(mix64(cfg_.seed) ^ ((std::uint64_t{warm_index} << 1) | 1));
  e.warm = true;
  e.warm_index = warm_index;
  return e;
}

StreamEntry RequestStream::at(std::uint64_t index) const {
  const std::uint64_t per_block = kRepeatEvery;
  const std::uint64_t block = index / per_block;
  const std::uint64_t slot = index % per_block;
  const std::uint64_t warm_slot = mix64(cfg_.seed ^ kPlaceKey ^ mix64(block)) % per_block;
  if (slot == warm_slot) {
    return warm(static_cast<std::uint32_t>(mix64(cfg_.seed ^ kPickKey ^ mix64(block)) % kWarmSize));
  }
  const std::uint64_t cold = block * (per_block - 1) + (slot < warm_slot ? slot : slot - 1);
  StreamEntry e;
  e.strategy = cfg_.cold_strategies[cold % cfg_.cold_strategies.size()];
  e.sample_roots = cfg_.sample_roots;
  e.seed = mix64(mix64(cfg_.seed) ^ (cold << 1));
  return e;
}

hbc::service::Request RequestStream::request(const StreamEntry& e, std::size_t top_k) const {
  hbc::service::Request r;
  r.graph_id = kGraphId;
  r.options.strategy = e.strategy;
  r.options.sample_roots = e.sample_roots;
  r.options.seed = e.seed;
  r.top_k = top_k;
  return r;
}

std::string RequestStream::workload_line(const StreamEntry& e) const {
  return std::string(kGraphId) + ' ' + hbc::core::to_string(e.strategy) + ' ' +
         std::to_string(e.sample_roots) + ' ' + std::to_string(e.seed);
}

}  // namespace perfbench
