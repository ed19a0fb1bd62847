// hbc_perfbench — run one benchmark workload and print its result.
//
//   hbc_perfbench --workload <batch-kron|serve-mixed|fleet-rgg> --seed <n>
//                 --seconds <s> --trace <0|1> [--out-dir <dir>] [--git-sha <sha>]
//
// Prints host facts, sample counts and every metric by name with its unit,
// then, as the last line, one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones,
// with --trace 1 the per-layer ones. Exit 0 when a result was printed, 2 on
// bad arguments, 1 when the run itself failed.

#include <cstdio>
#include <exception>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: hbc_perfbench --workload <batch-kron|serve-mixed|fleet-rgg> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] [--git-sha <sha>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Params p;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string value = argv[++i];
      if (arg == "--workload") p.workload = value;
      else if (arg == "--seed") p.seed = std::stoull(value);
      else if (arg == "--seconds") p.seconds = std::stod(value);
      else if (arg == "--trace") p.trace = std::stoi(value) != 0;
      else if (arg == "--out-dir") p.out_dir = value;
      else if (arg == "--git-sha") p.git_sha = value;
      else return usage(("unknown argument " + arg).c_str());
    }
  } catch (const std::exception&) {
    return usage("bad argument value");
  }
  if (p.workload.empty() || !(p.seconds > 0.0)) return usage("need --workload and --seconds > 0");

  try {
    const perfbench::Outcome out = perfbench::run_workload(p);
    for (const std::string& line : out.report.notes()) std::printf("%s\n", line.c_str());
    for (const std::string& line : out.report.metric_lines()) std::printf("%s\n", line.c_str());
    std::printf("%-28s %14.6g share (%llu failed of %llu attempted)\n", "fail_ratio",
                out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    const std::string line =
        out.report.result_line(p.trace ? perfbench::Kind::PerLayer : perfbench::Kind::EndToEnd,
                               out.correct, out.attempted, out.failed);
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hbc_perfbench: %s: %s\n", p.workload.c_str(), e.what());
    return 1;
  }
}
