#pragma once

// The three workloads. Each builds its inputs from the seed, sets up
// several times (setup_s is the median), measures for the given time, and
// then checks the answers it got. With tracing on, the timed phase is
// split: the first half runs untraced, the second half records spans, and
// per-layer metrics come from the second half.

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct Params {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace and the serving
  /// workload file. Empty = write nothing.
  std::string out_dir;
  std::string git_sha = "unknown";

  // Sizes. The defaults are the benchmark's; the unit tests shrink them.
  std::uint32_t kron_scale = 16;
  std::uint32_t serve_scale = 12;
  std::uint32_t fleet_scale = 12;
  std::uint32_t batch_roots = 1024;
};

struct Outcome {
  Report report;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

const std::vector<std::string>& workload_names();

/// Run one workload. Throws std::invalid_argument for an unknown name.
Outcome run_workload(const Params& params);

}  // namespace perfbench
