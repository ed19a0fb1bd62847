// Table III reproduction: MTEPS (Equation 4) of the edge-parallel
// baseline vs the sampling method on the eight-graph suite, with the
// per-graph speedup and the geometric-mean speedup (paper: 2.71x).
//
// Absolute MTEPS depends on the device model's calibration; the shape to
// reproduce is: sampling delivers roughly uniform MTEPS across classes
// (the paper sees ~40+ MTEPS everywhere at its scales) while
// edge-parallel collapses on high-diameter graphs (af_shell 18, luxem
// 4.7 MTEPS) — futile inspections drown useful traversals.
//
// A second axis sweeps the storage backings (docs/storage.md): each graph
// is additionally run from an mmap'd .hbcg, a varint-compressed heap
// buffer, and an mmap'd .hbcgz, reporting cold/warm open times, the
// sampling MTEPS per backing (identical simulated time — the backings
// change where bytes live, not the work), and the compressed-vs-raw
// adjacency footprint.
//
// A third table reports HOST wall-clock MTEPS of the CPU engines
// (cpu-serial, cpu-parallel) on the same roots. Those are real seconds on
// this host, not simulated device time, so they are printed apart and
// never compared with the simulated columns.
//
// HBC_BENCH_JSON=<path> additionally writes one JSON record per
// (graph, backing) cell and one per graph for the host CPU engines, for
// the tracking dashboards.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/teps.hpp"
#include "cpu/brandes.hpp"
#include "cpu/parallel_brandes.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/storage/compressed.hpp"
#include "kernels/kernels.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace hbc;

std::vector<std::string> g_json_records;

void record_json(const std::string& graph, const char* backing, double open_cold_ms,
                 double open_warm_ms, double mteps, std::size_t adjacency_bytes,
                 std::size_t file_bytes) {
  std::ostringstream r;
  r << "{\"bench\":\"table3_storage\",\"graph\":\"" << graph << "\",\"backing\":\""
    << backing << "\",\"open_cold_ms\":" << open_cold_ms
    << ",\"open_warm_ms\":" << open_warm_ms << ",\"mteps\":" << mteps
    << ",\"adjacency_bytes\":" << adjacency_bytes << ",\"file_bytes\":" << file_bytes
    << "}";
  g_json_records.push_back(r.str());
}

void record_host_json(const std::string& graph, double serial_mteps, double parallel_mteps,
                      std::size_t threads) {
  std::ostringstream r;
  r << "{\"bench\":\"table3_host\",\"graph\":\"" << graph
    << "\",\"serial_host_mteps\":" << serial_mteps
    << ",\"parallel_host_mteps\":" << parallel_mteps << ",\"threads\":" << threads << "}";
  g_json_records.push_back(r.str());
}

void emit_json() {
  const char* path = std::getenv("HBC_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::ostringstream out;
  out << "[\n";
  for (std::size_t i = 0; i < g_json_records.size(); ++i) {
    out << "  " << g_json_records[i] << (i + 1 < g_json_records.size() ? ",\n" : "\n");
  }
  out << "]\n";
  std::ofstream f(path);
  f << out.str();
  std::printf("\nwrote %zu records to %s\n", g_json_records.size(), path);
}

struct StorageRow {
  std::string graph;
  const char* backing;
  double open_cold_ms;
  double open_warm_ms;
  double mteps;
  std::size_t adjacency_bytes;
  std::size_t file_bytes;
};

struct HostRow {
  std::string graph;
  double serial_mteps;
  double parallel_mteps;
  bool relabeled;
};

/// Host wall-clock MTEPS (Eq. 4 over real seconds) of one CPU engine run.
template <class Run>
double host_mteps(const graph::CSRGraph& g, Run&& run) {
  util::Timer wall;
  const cpu::BrandesResult r = run();
  return core::as_mteps(core::teps_bc(g, r.roots_processed, wall.elapsed_seconds()));
}

double sampling_mteps(const graph::CSRGraph& g, const kernels::RunConfig& config) {
  const auto r = kernels::run_sampling(g, config);
  return core::as_mteps(
      core::teps_bc(g, r.metrics.counters.roots_processed, r.metrics.sim_seconds));
}

}  // namespace

int main() {
  const std::uint32_t scale_override = bench::env_u32("HBC_BENCH_SCALE", 0);
  const std::uint32_t roots_override = bench::env_u32("HBC_BENCH_ROOTS", 0);

  bench::print_header(
      "Table III — MTEPS, edge-parallel vs sampling",
      "TEPS_BC = m*n/t (Eq. 4), extrapolated from the processed root subset;\n"
      "GTX Titan model");
  std::printf("%-20s %14s %14s %10s\n", "Graph", "Edge-par MTEPS", "Sampling MTEPS",
              "Speedup");
  bench::print_rule();

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "hbc_bench_storage";
  std::filesystem::create_directories(dir);

  std::vector<double> speedups;
  std::vector<StorageRow> storage_rows;
  std::vector<HostRow> host_rows;
  const std::size_t host_threads = std::max(1u, std::thread::hardware_concurrency());
  for (const auto& family : graph::gen::table3_family()) {
    const std::uint32_t scale = scale_override ? scale_override : family.default_scale;
    const std::uint32_t num_roots = roots_override ? roots_override : family.default_roots;
    const graph::CSRGraph g = family.make(scale, /*seed=*/1);

    kernels::RunConfig config;
    config.device = gpusim::gtx_titan();
    config.roots = bench::first_roots(g, num_roots);
    config.sampling.n_samps = std::max<std::uint32_t>(2, num_roots / 16);

    const auto ep = kernels::run_edge_parallel(g, config);
    const auto sa = kernels::run_sampling(g, config);

    const double ep_mteps = core::as_mteps(core::teps_bc(
        g, ep.metrics.counters.roots_processed, ep.metrics.sim_seconds));
    const double sa_mteps = core::as_mteps(core::teps_bc(
        g, sa.metrics.counters.roots_processed, sa.metrics.sim_seconds));
    const double speedup = ep.metrics.sim_seconds / sa.metrics.sim_seconds;
    speedups.push_back(speedup);

    std::printf("%-20s %14.2f %14.2f %9.2fx\n", family.name.c_str(), ep_mteps, sa_mteps,
                speedup);

    cpu::BrandesOptions serial;
    serial.sources = config.roots;
    cpu::ParallelBrandesOptions parallel;
    parallel.sources = config.roots;
    parallel.num_threads = host_threads;
    host_rows.push_back({family.name, host_mteps(g, [&] { return cpu::brandes(g, serial); }),
                         host_mteps(g, [&] { return cpu::parallel_brandes(g, parallel); }),
                         cpu::relabels_for(g, config.roots.size())});

    // Storage-backing axis: same sampling run from each backing. Cold
    // open includes full validation + fingerprint recomputation; warm
    // open re-maps a file the page cache already holds.
    const std::string raw = (dir / (family.name + ".hbcg")).string();
    const std::string comp = (dir / (family.name + ".hbcgz")).string();
    graph::io::save_binary_v2(g, raw, /*compress=*/false);
    graph::io::save_binary_v2(g, comp, /*compress=*/true);
    const std::size_t raw_adj = g.storage()->adjacency_bytes();

    storage_rows.push_back(
        {family.name, "heap", 0.0, 0.0, sa_mteps, raw_adj, 0});

    for (const bool compressed : {false, true}) {
      const std::string& path = compressed ? comp : raw;
      util::Timer cold;
      graph::CSRGraph mapped = graph::io::open_mapped(path);
      const double cold_ms = cold.elapsed_seconds() * 1e3;
      util::Timer warm;
      mapped = graph::io::open_mapped(path);
      const double warm_ms = warm.elapsed_seconds() * 1e3;
      storage_rows.push_back({family.name,
                              compressed ? "compressed-mapped" : "mapped", cold_ms,
                              warm_ms, sampling_mteps(mapped, config),
                              mapped.storage()->adjacency_bytes(),
                              mapped.storage()->file_bytes()});
    }

    const graph::CSRGraph comp_heap(graph::storage::CompressedStorage::compress(
        g.row_offsets(), g.col_indices(), g.undirected()));
    storage_rows.push_back({family.name, "compressed-heap", 0.0, 0.0,
                            sampling_mteps(comp_heap, config),
                            comp_heap.storage()->adjacency_bytes(), 0});
  }

  bench::print_rule();
  std::printf("%-20s %14s %14s %9.2fx   geometric mean\n", "Average", "", "",
              util::geometric_mean(speedups));
  std::printf("\npaper: speedups 13.31x (af_shell9), 10.23x (delaunay_n20),\n"
              "8.31x (luxembourg.osm), 1.0-1.6x on scale-free/small-world;\n"
              "geometric mean 2.71x.\n");

  std::printf("\nStorage backings — sampling per backing (docs/storage.md)\n");
  std::printf("%-20s %-18s %9s %9s %10s %12s %7s\n", "Graph", "Backing", "Cold ms",
              "Warm ms", "MTEPS", "Adj bytes", "Ratio");
  bench::print_rule();
  for (const StorageRow& row : storage_rows) {
    // Ratio: stored adjacency relative to the raw m*4 array.
    double raw_bytes = 0;
    for (const StorageRow& other : storage_rows) {
      if (other.graph == row.graph && std::string(other.backing) == "heap") {
        raw_bytes = static_cast<double>(other.adjacency_bytes);
      }
    }
    std::printf("%-20s %-18s %9.2f %9.2f %10.2f %12zu %6.2fx\n", row.graph.c_str(),
                row.backing, row.open_cold_ms, row.open_warm_ms, row.mteps,
                row.adjacency_bytes,
                raw_bytes > 0 ? raw_bytes / static_cast<double>(row.adjacency_bytes)
                              : 1.0);
    record_json(row.graph, row.backing, row.open_cold_ms, row.open_warm_ms, row.mteps,
                row.adjacency_bytes, row.file_bytes);
  }
  std::printf("\nMTEPS is simulated-device time and must be identical across\n"
              "backings (the ledger charges decoded bytes); the columns that\n"
              "move are open cost and the adjacency footprint.\n");

  std::printf("\nHost wall clock — CPU engines on the same roots (%zu threads for\n"
              "cpu-parallel). Real seconds on this host, not the device model:\n"
              "do not compare with the simulated MTEPS above.\n",
              host_threads);
  std::printf("%-20s %18s %20s %9s\n", "Graph", "cpu-serial MTEPS", "cpu-parallel MTEPS",
              "Relabel");
  bench::print_rule();
  for (const HostRow& row : host_rows) {
    std::printf("%-20s %18.2f %20.2f %9s\n", row.graph.c_str(), row.serial_mteps,
                row.parallel_mteps, row.relabeled ? "yes" : "no");
    record_host_json(row.graph, row.serial_mteps, row.parallel_mteps, host_threads);
  }

  emit_json();
  return 0;
}
