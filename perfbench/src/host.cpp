#include "host.hpp"

#include <sys/resource.h>

#include <fstream>
#include <string>
#include <thread>

#include "graph/types.hpp"

namespace perfbench {

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Size of the unified cache at `level` as sysfs spells it ("2048K"), or
/// "unknown".
std::string cache_size(int level) {
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  for (int i = 0; i < 8; ++i) {
    const std::string dir = base + std::to_string(i) + "/";
    if (read_line(dir + "level") == std::to_string(level) &&
        read_line(dir + "type") == "Unified") {
      return read_line(dir + "size") + " shared_cpus=" + read_line(dir + "shared_cpu_list");
    }
  }
  return "unknown";
}

}  // namespace

std::string host_facts(const std::string& git_sha) {
  return "host: nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " l2=" + cache_size(2) + " l3=" + cache_size(3) +
         " build_type=" PERFBENCH_BUILD_TYPE " compiler=" PERFBENCH_COMPILER
         " git_sha=" + git_sha;
}

std::size_t csr_bytes(const hbc::graph::CSRGraph& g) {
  return (std::size_t{g.num_vertices()} + 1) * sizeof(hbc::graph::EdgeOffset) +
         std::size_t{g.num_directed_edges()} * sizeof(hbc::graph::VertexId);
}

std::string graph_facts(const std::string& label, const hbc::graph::CSRGraph& g) {
  return "graph " + label + ": n=" + std::to_string(g.num_vertices()) +
         " m=" + std::to_string(g.num_undirected_edges()) +
         " directed_edges=" + std::to_string(g.num_directed_edges()) +
         " csr_bytes=" + std::to_string(csr_bytes(g));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
