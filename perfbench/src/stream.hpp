#pragma once

// The seeded request stream the serving workloads replay.
//
// Requests come in blocks of four. Exactly one request per block repeats an
// entry of the warm set of eight (which set-up pre-computes, so it is a
// cache hit); the others are cold, each with a seed no other request uses.
// Cold requests cycle through `cold_strategies` in stream order; warm
// entries cycle through it by warm index. Entry i is a pure function of
// (config, i), so any number of client threads can draw indices from a
// shared counter and the stream stays the same for one seed.

#include <cstdint>
#include <string>
#include <vector>

#include "core/bc.hpp"
#include "service/service.hpp"

namespace perfbench {

/// The id every request names; the workloads register their graph under it.
inline constexpr const char* kGraphId = "g0";
inline constexpr std::uint32_t kWarmSize = 8;
inline constexpr std::uint32_t kRepeatEvery = 4;  // one warm repeat per block

struct StreamConfig {
  std::uint64_t seed = 1;
  std::uint32_t sample_roots = 32;
  std::vector<hbc::core::Strategy> cold_strategies;
};

struct StreamEntry {
  hbc::core::Strategy strategy = hbc::core::Strategy::Sampling;
  std::uint32_t sample_roots = 0;
  std::uint64_t seed = 0;
  bool warm = false;
  std::uint32_t warm_index = 0;  // meaningful when warm
};

class RequestStream {
 public:
  explicit RequestStream(StreamConfig config);

  StreamEntry at(std::uint64_t index) const;
  StreamEntry warm(std::uint32_t warm_index) const;
  const StreamConfig& config() const noexcept { return cfg_; }

  /// The service request for an entry (top_k as the workload asks).
  hbc::service::Request request(const StreamEntry& e, std::size_t top_k) const;

  /// One `hbc-serve --workload` line: "graph_id strategy roots seed".
  std::string workload_line(const StreamEntry& e) const;

 private:
  StreamConfig cfg_;
};

/// SplitMix64 finaliser: a bijection on 64-bit words, so distinct inputs
/// give distinct outputs.
std::uint64_t mix64(std::uint64_t x) noexcept;

}  // namespace perfbench
