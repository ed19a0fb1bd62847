#pragma once

// Facts printed with every result, so a reading can be set against the
// machine's caches and the build that produced it.

#include <cstddef>
#include <string>

#include "graph/csr.hpp"

namespace perfbench {

/// nproc, per-core L2 and shared L3 (from sysfs), build type, compiler and
/// the git revision handed in by the caller, as one line.
std::string host_facts(const std::string& git_sha);

/// Bytes of the CSR arrays: (n + 1) row offsets plus one column index per
/// directed edge.
std::size_t csr_bytes(const hbc::graph::CSRGraph& g);

/// "graph <label>: n=... m=... csr_bytes=..." for one workload graph.
std::string graph_facts(const std::string& label, const hbc::graph::CSRGraph& g);

/// ru_maxrss of this process in MiB.
double peak_rss_mib();

}  // namespace perfbench
