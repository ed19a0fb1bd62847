#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/bc.hpp"
#include "core/teps.hpp"
#include "graph/generators.hpp"
#include "host.hpp"
#include "net/coordinator.hpp"
#include "net/wire.hpp"
#include "net/worker.hpp"
#include "service/service.hpp"
#include "stream.hpp"
#include "trace/check.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using hbc::core::BCResult;
using hbc::core::Strategy;
using hbc::graph::CSRGraph;
using hbc::graph::VertexId;
using hbc::trace::Tracer;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
constexpr std::size_t kTopK = 10;
constexpr std::uint32_t kSampleRoots = 32;
/// Result-cache budget of the service and the coordinator: about 500
/// results at n = 4096, so the warm set is never evicted, while the cache
/// stays small enough that memory does not grow with the request count.
constexpr std::size_t kCacheBytes = 16u << 20;
/// Requests at the head of the stream whose results are kept: the GPU-model
/// ones among them give the simulated-ledger metrics, which therefore
/// repeat exactly for one seed.
constexpr std::uint64_t kLedgerRequests = 256;
/// Answers are checked on a seeded one-in-16 sample of the first 1024
/// requests, at most 64 per run, so the results kept for checking do not
/// grow with throughput.
constexpr std::uint64_t kCheckedPrefix = 1024;
constexpr std::size_t kMaxChecks = 64;
constexpr double kRelTol = 1e-9;
constexpr int kWireReps = 200;
/// Set-up ends with a short burst of cold traffic, so allocator growth and
/// first-touch page faults happen before timing. Its stream indices lie far
/// past any timed run, so its cold seeds never recur in the timed stream.
constexpr std::uint64_t kWarmupFirstIndex = std::uint64_t{1} << 40;
constexpr std::uint64_t kWarmupRequests = 32;
/// A serving phase's answers are cut into this many windows of equal count.
/// qps, host_mteps and p50_ms are medians over the windows, so host noise
/// that slows fewer than half of the answers does not move them.
constexpr std::size_t kWindows = 30;

constexpr std::uint64_t kRootsKey = 0xa4093822299f31d0ULL;
constexpr std::uint64_t kCheckKey = 0x082efa98ec4e6c89ULL;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t host_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool close_to(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max(std::abs(a[i]), std::abs(b[i]));
    if (std::abs(a[i] - b[i]) > kRelTol * scale + 1e-12) return false;
  }
  return true;
}

/// Seeded choice of the requests whose answers get checked.
bool picked_for_check(std::uint64_t seed, std::uint64_t index) {
  return index < kCheckedPrefix && mix64(seed ^ kCheckKey ^ mix64(index)) % 16 == 0;
}

double median_of(std::vector<double> xs) {
  return xs.empty() ? 0.0 : hbc::util::median(std::move(xs));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::atomic<std::uint64_t> next_span_id{0};

/// A span the benchmark records around one of its own calls into a library
/// layer, into the calling thread's sink of `tracer`. Its args carry the
/// span's id, its parent span's id (0 for a root span) and the request id.
/// A null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t request, std::uint64_t parent = 0)
      : id_(tracer ? ++next_span_id : 0),
        scope_(tracer ? tracer->thread_sink("perfbench") : nullptr, tracer, name,
               hbc::trace::kRun, {{"span", id_}, {"parent", parent}, {"request", request}}) {}

  std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_;
  hbc::trace::ScopedSpan scope_;
};

struct Recorded {
  const char* name = nullptr;
  std::uint64_t request = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;

  double ms() const noexcept { return static_cast<double>(end_ns - begin_ns) / 1e6; }
};

/// Every span in the tracer, from its Begin/End pairs, which nest per sink.
/// Call only after every recording thread has finished.
std::vector<Recorded> recorded(const Tracer& tracer) {
  std::vector<Recorded> out;
  std::map<std::uint32_t, std::vector<Recorded>> open;  // by sink tid
  for (const hbc::trace::Event& e : tracer.events()) {
    if (e.phase == hbc::trace::Phase::Begin) {
      open[e.tid].push_back({e.name, e.num_args > 2 ? e.args[2].value.u : 0, e.ts_ns, 0});
    } else if (e.phase == hbc::trace::Phase::End && !open[e.tid].empty()) {
      out.push_back(open[e.tid].back());
      out.back().end_ns = e.ts_ns;
      open[e.tid].pop_back();
    }
  }
  return out;
}

/// Durations in milliseconds of the spans called `name`.
std::vector<double> durations_ms(const Tracer& tracer, const char* name) {
  std::vector<double> out;
  for (const Recorded& s : recorded(tracer)) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.ms());
  }
  return out;
}

std::shared_ptr<const CSRGraph> build_graph(const char* family, std::uint32_t scale,
                                            std::uint64_t seed, Tracer* tracer,
                                            std::uint64_t parent) {
  Span s(tracer, "graph.build", 0, parent);
  return std::make_shared<const CSRGraph>(
      hbc::graph::gen::family_by_name(family).make(scale, seed));
}

/// Runs `make` kSetupRepeats times, tearing the previous state down
/// (untimed) before each, and keeps the last. setup_s is the median.
template <class Make>
auto set_up(Report& rep, Make make) {
  std::vector<double> times;
  decltype(make()) state;
  for (int k = 0; k < kSetupRepeats; ++k) {
    state.reset();
    const Clock::time_point t0 = Clock::now();
    state = make();
    times.push_back(since(t0));
  }
  rep.set("setup_s", median_of(times));
  rep.note("setup_s: median of " + std::to_string(times.size()) + " set-ups");
  return state;
}

/// p99_ms is printed with its sample count but is not a result metric: on
/// a shared host it moves with minute-scale noise by more than the largest
/// bound a result metric may have.
void note_tail(Report& rep, const std::vector<double>& latencies_ms) {
  const LatencySummary s = summarize(latencies_ms);
  char p99[64];
  std::snprintf(p99, sizeof p99, "%.6g", s.p99);
  rep.note("latency samples=" + std::to_string(s.samples) + " highest supported percentile=" +
           percentile_label(s.supported) + " p99_ms=" + p99 +
           (s.supported < 99.0 ? " (not supported by the sample count)" : ""));
}

/// Per-layer metrics a workload does not exercise read 0.
void zero_unless_set(Report& rep) {
  for (const MetricInfo& m : metric_catalog()) {
    if (m.kind == Kind::PerLayer && !rep.has(m.name)) rep.set(m.name, 0.0);
  }
}

/// Encode and decode one SubmitShardMsg carrying a 32-root query and one
/// ShardResultMsg carrying n scores: the frames a fleet query moves.
void wire_probe(const CSRGraph& g, std::uint64_t seed, Tracer& tracer, Report& rep,
                Outcome& out) {
  namespace wire = hbc::net::wire;
  const VertexId n = g.num_vertices();
  wire::SubmitShardMsg submit;
  submit.graph_id = kGraphId;
  submit.mode = wire::ShardMode::Whole;
  submit.strategy = static_cast<std::uint8_t>(Strategy::WorkEfficient);
  submit.seed = seed;
  submit.roots = hbc::core::sample_roots(n, std::min<VertexId>(kSampleRoots, n), seed);
  wire::ShardResultMsg result;
  result.roots_processed = submit.roots.size();
  result.scores.resize(n);
  for (VertexId v = 0; v < n; ++v) result.scores[v] = 0.5 * v + 1.0 / (v + 1.0);

  std::size_t frame_bytes = 0;
  bool round_trip_ok = true;
  for (int r = 0; r < kWireReps; ++r) {
    Span probe(&tracer, "wire.probe", 0);
    std::vector<std::uint8_t> a, b;
    {
      Span s(&tracer, "wire.encode", 0, probe.id());
      a = wire::encode(submit, r + 1);
      b = wire::encode(result, r + 1);
    }
    wire::SubmitShardMsg submit_back;
    wire::ShardResultMsg result_back;
    {
      Span s(&tracer, "wire.decode", 0, probe.id());
      wire::Frame fa, fb;
      std::size_t used = 0;
      round_trip_ok &= wire::extract_frame(a, fa, used) == wire::DecodeStatus::Ok &&
                       wire::decode(fa, submit_back) == wire::DecodeStatus::Ok;
      round_trip_ok &= wire::extract_frame(b, fb, used) == wire::DecodeStatus::Ok &&
                       wire::decode(fb, result_back) == wire::DecodeStatus::Ok;
    }
    round_trip_ok &= submit_back.roots == submit.roots && same_bits(result_back.scores, result.scores);
    frame_bytes = a.size() + b.size();
  }
  if (!round_trip_ok) {
    out.correct = false;
    rep.note("wire probe: decoded frames differ from the encoded messages");
  }
  rep.set("wire.encode_us", median_of(durations_ms(tracer, "wire.encode")) * 1e3);
  rep.set("wire.decode_us", median_of(durations_ms(tracer, "wire.decode")) * 1e3);
  rep.set("wire.frame_bytes", static_cast<double>(frame_bytes));
}

/// Traced-run epilogue shared by all workloads: graph build time, the wire
/// probe, zeros for unexercised layers, and the trace itself, which must
/// pass the same validation as hbc-trace-check. Call once every other
/// thread that records into the tracer has finished.
void finish_trace(const Params& p, const CSRGraph& g, Tracer& tracer, Outcome& out) {
  Report& rep = out.report;
  rep.set("graph.build_s", median_of(durations_ms(tracer, "graph.build")) / 1e3);
  wire_probe(g, p.seed, tracer, rep, out);
  zero_unless_set(rep);

  const std::string json = tracer.chrome_json();
  const hbc::trace::CheckResult check = hbc::trace::validate_chrome_trace(json);
  rep.note("trace: " + std::to_string(check.span_pairs) + " spans, " +
           std::to_string(tracer.dropped()) + " events dropped, " +
           (check.ok ? "valid" : "INVALID: " + check.error_text()));
  if (!check.ok || tracer.dropped() > 0) out.correct = false;
  if (!p.out_dir.empty()) {
    const std::string path = p.out_dir + "/trace-" + p.workload + ".json";
    std::ofstream(path) << json;
    rep.note("trace written to " + path);
  }
}

// ---------------------------------------------------------------------------
// Serving workloads: the client side shared by serve-mixed and fleet-rgg.

struct Sample {
  std::uint64_t index = 0;
  StreamEntry entry;
  double latency_ms = 0.0;
  double done_s = 0.0;  // answer returned, seconds into the phase
  bool ok = false;
  bool degraded = false;
  bool hit = false;
  bool coalesced = false;
  double compute_ms = 0.0;
  std::uint64_t roots = 0;
  double wall_s = 0.0;  // BCResult::wall_seconds
  hbc::kernels::RunMetrics kernel;
  std::shared_ptr<const BCResult> result;  // kept for the answer checks

  bool computed() const noexcept { return ok && !hit && !coalesced; }
};

void take_response(Sample& s, const hbc::service::Response& r, bool keep) {
  s.ok = r.ok();
  s.degraded = r.degraded;
  s.hit = s.hit || r.from_cache;
  s.coalesced = s.coalesced || r.coalesced;
  s.compute_ms = r.compute_ms;
  if (r.result) {
    s.roots = r.result->roots_processed;
    s.wall_s = r.result->wall_seconds;
    s.kernel = r.result->kernel_metrics;
    s.kernel.per_root_cycles.clear();
    if (keep) s.result = r.result;
  }
}

struct PhaseResult {
  std::vector<Sample> samples;  // ordered by stream index
  double seconds = 0.0;         // planned length; later answers were in flight
};

/// Closed loop: `clients` threads each issue the next stream index and wait
/// for its answer, until `seconds` have passed. Indices continue from
/// `next`, so two phases replay one stream.
template <class Issue>
PhaseResult drive(std::size_t clients, std::atomic<std::uint64_t>& next, double seconds,
                  Tracer* tracer, Issue issue) {
  PhaseResult out;
  out.seconds = seconds;
  std::vector<std::vector<Sample>> per_client(clients);
  std::mutex err_mu;
  std::exception_ptr error;
  std::atomic<bool> abort{false};
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          while (Clock::now() < deadline && !abort.load()) {
            per_client[c].push_back(issue(next.fetch_add(1), tracer));
            per_client[c].back().done_s = since(t0);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!error) error = std::current_exception();
          abort.store(true);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  if (error) std::rethrow_exception(error);
  for (auto& v : per_client) {
    for (Sample& s : v) out.samples.push_back(std::move(s));
  }
  std::sort(out.samples.begin(), out.samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  return out;
}

/// End-to-end metrics of one serving phase, timed by the client. qps,
/// host_mteps and p50_ms are medians over kWindows windows of the answers
/// returned before the deadline; p99_ms is over every answer.
void serving_end_to_end(const CSRGraph& g, const PhaseResult& ph, Report& rep) {
  std::vector<double> latencies;
  std::vector<Answer> answers;
  for (const Sample& s : ph.samples) {
    latencies.push_back(s.latency_ms);
    if (s.done_s < ph.seconds) {
      answers.push_back({s.done_s, s.latency_ms, s.ok, s.computed() ? s.roots : 0});
    }
  }
  const WindowMedians w = window_medians(std::move(answers), kWindows);
  rep.set("qps", w.qps);
  // Eq. 4 is linear in the root count.
  rep.set("host_mteps", hbc::core::as_mteps(hbc::core::teps_bc(g, 1, 1.0)) * w.roots_per_s);
  rep.set("p50_ms", w.p50_ms);
  note_tail(rep, latencies);
  char line[160];
  std::snprintf(line, sizeof line, "windows: %zu of %zu answers, qps min/median/max %.4g/%.4g/%.4g",
                w.windows, w.per_window, w.qps_min, w.qps, w.qps_max);
  rep.note(line);
}

/// Client latency in ms per request id, from the "request" spans.
std::unordered_map<std::uint64_t, double> request_ms(const Tracer& tracer) {
  std::unordered_map<std::uint64_t, double> out;
  for (const Recorded& s : recorded(tracer)) {
    if (std::strcmp(s.name, "request") == 0) out[s.request] = s.ms();
  }
  return out;
}

/// Runs `verify` on each kept answer (at most kMaxChecks) and counts every
/// request into the outcome. A request fails if its status is not Ok, if it
/// was degraded, or if its answer fails the check.
template <class Verify>
void check_answers(const std::vector<const PhaseResult*>& phases, Verify verify, Outcome& out) {
  std::size_t checks = 0, mismatches = 0;
  for (const PhaseResult* ph : phases) {
    for (const Sample& s : ph->samples) {
      bool failed = !s.ok || s.degraded;
      if (s.result && checks < kMaxChecks) {
        ++checks;
        if (!verify(s)) {
          failed = true;
          ++mismatches;
        }
      }
      ++out.attempted;
      out.failed += failed ? 1 : 0;
    }
  }
  out.report.note("check: " + std::to_string(checks) + " sampled answers, " +
                  std::to_string(mismatches) + " mismatched");
}

/// A fresh core::compute with the request's options, which the service
/// contract says gives the served answer bit for bit.
BCResult direct(const CSRGraph& g, const RequestStream& stream, const StreamEntry& e,
                Strategy strategy) {
  hbc::core::Options o = stream.request(e, 0).options;
  o.strategy = strategy;
  return hbc::core::compute(g, o);
}

void write_workload_file(const Params& p, const RequestStream& stream, std::uint64_t count) {
  if (p.out_dir.empty()) return;
  std::ofstream f(p.out_dir + "/" + p.workload + ".workload");
  f << "# " << p.workload << " seed " << p.seed << ": graph_id strategy roots seed\n";
  for (std::uint64_t i = 0; i < count; ++i) f << stream.workload_line(stream.at(i)) << '\n';
}

// ---------------------------------------------------------------------------
// batch-kron: one analytics caller, CPU-parallel Brandes over a fixed root
// set, thousands of roots per call.

struct KronState {
  std::shared_ptr<const CSRGraph> g;
  std::vector<VertexId> roots;
};

Outcome batch_kron(const Params& p) {
  Outcome out;
  Report& rep = out.report;
  const std::unique_ptr<Tracer> tracer = p.trace ? std::make_unique<Tracer>() : nullptr;
  const std::size_t threads = std::min<std::size_t>(host_threads(), 4);

  hbc::core::Options opt;
  opt.strategy = Strategy::CpuParallel;
  opt.cpu_threads = threads;

  auto st = set_up(rep, [&] {
    auto s = std::make_unique<KronState>();
    Span setup(tracer.get(), "setup", 0);
    s->g = build_graph("kron", p.kron_scale, p.seed, tracer.get(), setup.id());
    // Roots are drawn from the vertices with edges: kron leaves many
    // isolated, and an isolated root traverses nothing, so drawing from
    // all vertices would make the work of a call depend on the seed.
    std::vector<VertexId> candidates;
    for (VertexId v = 0; v < s->g->num_vertices(); ++v) {
      if (s->g->degree(v) > 0) candidates.push_back(v);
    }
    const auto count = static_cast<VertexId>(candidates.size());
    for (VertexId i : hbc::core::sample_roots(count, std::min<VertexId>(p.batch_roots, count),
                                              p.seed ^ kRootsKey)) {
      s->roots.push_back(candidates[i]);
    }
    // Fault the graph and the engine's buffers in before timing.
    hbc::core::Options warm = opt;
    warm.roots.assign(s->roots.begin(), s->roots.begin() + std::min<std::size_t>(64, s->roots.size()));
    Span c(tracer.get(), "core.compute", 0, setup.id());
    hbc::core::compute(*s->g, warm);
    return s;
  });
  const CSRGraph& g = *st->g;
  rep.note(graph_facts("kron scale " + std::to_string(p.kron_scale), g));
  rep.note("batch-kron: cpu-parallel, cpu_threads=" + std::to_string(threads) + ", " +
           std::to_string(st->roots.size()) + " roots per call");
  opt.roots = st->roots;

  struct Calls {
    std::vector<double> ms;
    std::uint64_t roots = 0;
    std::uint64_t mismatched = 0;  // calls whose bits differ from the first
  };
  std::vector<double> reference;
  std::uint64_t next_id = 0;
  auto phase = [&](double seconds, Tracer* traced) {
    Calls calls;
    const Clock::time_point deadline =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    do {
      const std::uint64_t id = ++next_id;
      Span rq(traced, "request", id);
      const Clock::time_point t0 = Clock::now();
      BCResult r;
      {
        Span c(traced, "core.compute", id, rq.id());
        r = hbc::core::compute(g, opt);
      }
      calls.ms.push_back(since(t0) * 1e3);
      calls.roots += r.roots_processed;
      if (reference.empty()) reference = std::move(r.scores);
      else if (!same_bits(reference, r.scores)) ++calls.mismatched;
    } while (Clock::now() < deadline);
    return calls;
  };
  // Every call does the same work, so the median call gives all three
  // metrics, and a call slowed by host noise does not move them.
  auto end_to_end = [&](const Calls& c, Report& into) {
    const double call_s = median_of(c.ms) / 1e3;
    into.set("host_mteps", hbc::core::as_mteps(hbc::core::teps_bc(g, opt.roots.size(), call_s)));
    into.set("qps", ratio(1.0, call_s));
    into.set("p50_ms", call_s * 1e3);
    note_tail(into, c.ms);
    char line[128];
    std::snprintf(line, sizeof line, "calls: %zu, ms min/median/max %.5g/%.5g/%.5g", c.ms.size(),
                  *std::min_element(c.ms.begin(), c.ms.end()), call_s * 1e3,
                  *std::max_element(c.ms.begin(), c.ms.end()));
    into.note(line);
  };

  const double untraced_s = p.trace ? p.seconds / 2 : p.seconds;
  const Calls a = phase(untraced_s, nullptr);
  end_to_end(a, rep);
  std::vector<const Calls*> phases = {&a};
  Calls b;
  if (p.trace) {
    const std::uint64_t before = hbc::core::compute_invocations();
    b = phase(p.seconds / 2, tracer.get());
    const std::uint64_t computes = hbc::core::compute_invocations() - before;
    phases.push_back(&b);
    Report traced;
    end_to_end(b, traced);
    // Eq. 4 over the per-call wall time of the traced core::compute spans
    // (request 0 is the set-up warm-up).
    double span_s = 0.0;
    for (const Recorded& s : recorded(*tracer)) {
      if (s.request != 0 && std::strcmp(s.name, "core.compute") == 0) span_s += s.ms() / 1e3;
    }
    rep.set("cpu.host_mteps", hbc::core::as_mteps(hbc::core::teps_bc(g, b.roots, span_s)));
    rep.set("core.computes_per_request", ratio(static_cast<double>(computes), b.ms.size()));
    rep.set("trace.overhead_ratio", ratio(traced.get("host_mteps"), rep.get("host_mteps")));
  }
  rep.set("peak_rss_mb", peak_rss_mib());

  // Answer check: the engine on a seeded 64-root subset against the
  // GPU-model work-efficient kernel, an independent implementation.
  std::vector<VertexId> subset;
  for (VertexId i : hbc::core::sample_roots(static_cast<VertexId>(st->roots.size()),
                                            std::min<VertexId>(64, st->roots.size()),
                                            p.seed ^ kCheckKey)) {
    subset.push_back(st->roots[i]);
  }
  hbc::core::Options engine = opt;
  engine.roots = subset;
  hbc::core::Options kernel = engine;
  kernel.strategy = Strategy::WorkEfficient;
  const bool engine_ok = close_to(hbc::core::compute(g, engine).scores,
                                  hbc::core::compute(g, kernel).scores);
  rep.note(std::string("check: cpu-parallel vs work-efficient on ") +
           std::to_string(subset.size()) + " roots: " + (engine_ok ? "match" : "MISMATCH"));
  for (const Calls* c : phases) {
    out.attempted += c->ms.size();
    out.failed += engine_ok ? c->mismatched : c->ms.size();
  }

  if (p.trace) finish_trace(p, g, *tracer, out);
  return out;
}

// ---------------------------------------------------------------------------
// serve-mixed: four closed-loop clients against a two-worker BcService.

struct ServeState {
  std::shared_ptr<const CSRGraph> g;
  std::unique_ptr<hbc::service::BcService> svc;
};

Outcome serve_mixed(const Params& p) {
  Outcome out;
  Report& rep = out.report;
  const std::unique_ptr<Tracer> tracer = p.trace ? std::make_unique<Tracer>() : nullptr;
  constexpr std::size_t kClients = 4;
  const RequestStream stream(
      {.seed = p.seed, .cold_strategies = {Strategy::Sampling, Strategy::CpuSerial}});

  auto st = set_up(rep, [&] {
    auto s = std::make_unique<ServeState>();
    Span setup(tracer.get(), "setup", 0);
    s->g = build_graph("smallworld", p.serve_scale, p.seed, tracer.get(), setup.id());
    hbc::service::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.cache_bytes = kCacheBytes;
    s->svc = std::make_unique<hbc::service::BcService>(cfg);
    s->svc->load_graph(kGraphId, s->g);
    std::vector<StreamEntry> entries;
    for (std::uint32_t j = 0; j < kWarmSize; ++j) entries.push_back(stream.warm(j));
    for (std::uint64_t k = 0; k < kWarmupRequests; ++k) {
      entries.push_back(stream.at(kWarmupFirstIndex + k));
    }
    // At most kClients in flight, as in the timed phase, so set-up never
    // queues deeper than the timed traffic can and the service's lifetime
    // queue_peak_depth comes from the timed traffic.
    for (std::size_t i = 0; i < entries.size(); i += kClients) {
      std::vector<hbc::service::Ticket> window;
      for (std::size_t j = i; j < std::min(i + kClients, entries.size()); ++j) {
        window.push_back(s->svc->submit(stream.request(entries[j], kTopK)));
      }
      for (const auto& t : window) {
        if (!s->svc->wait(t).ok()) throw std::runtime_error("serve-mixed: set-up request failed");
      }
    }
    return s;
  });
  const CSRGraph& g = *st->g;
  hbc::service::BcService& svc = *st->svc;
  rep.note(graph_facts("smallworld scale " + std::to_string(p.serve_scale), g));

  auto issue = [&](std::uint64_t i, Tracer* traced) {
    Sample s;
    s.index = i;
    s.entry = stream.at(i);
    hbc::service::Request req = stream.request(s.entry, kTopK);
    Span rq(traced, "request", i + 1);
    const Clock::time_point t0 = Clock::now();
    hbc::service::Ticket t;
    {
      Span sub(traced, "service.submit", i + 1, rq.id());
      t = svc.submit(std::move(req));
    }
    hbc::service::Response r;
    {
      Span w(traced, "service.wait", i + 1, rq.id());
      r = svc.wait(t);
    }
    s.latency_ms = since(t0) * 1e3;
    s.hit = t.cache_hit;
    s.coalesced = t.coalesced;
    take_response(s, r, picked_for_check(p.seed, i));
    return s;
  };

  std::atomic<std::uint64_t> next{0};
  const PhaseResult a = drive(kClients, next, p.trace ? p.seconds / 2 : p.seconds, nullptr, issue);
  serving_end_to_end(g, a, rep);
  std::vector<const PhaseResult*> phases = {&a};
  PhaseResult b;
  if (p.trace) {
    const std::uint64_t before = hbc::core::compute_invocations();
    b = drive(kClients, next, p.seconds / 2, tracer.get(), issue);
    const std::uint64_t computes = hbc::core::compute_invocations() - before;
    phases.push_back(&b);
    Report traced;
    serving_end_to_end(g, b, traced);

    const auto req_ms = request_ms(*tracer);
    std::vector<double> queue_wait, compute_ms, hit_us;
    std::uint64_t hits = 0, coalesced = 0, cpu_roots = 0, kernel_edges = 0;
    double cpu_wall = 0.0, kernel_wall = 0.0;
    for (const Sample& s : b.samples) {
      hits += s.hit ? 1 : 0;
      coalesced += s.coalesced ? 1 : 0;
      const double ms = req_ms.at(s.index + 1);
      if (s.hit) hit_us.push_back(ms * 1e3);
      if (!s.computed()) continue;
      queue_wait.push_back(ms - s.compute_ms);
      compute_ms.push_back(s.compute_ms);
      if (hbc::core::uses_gpu_model(s.entry.strategy)) {
        kernel_edges += s.kernel.counters.edges_traversed;
        kernel_wall += s.kernel.wall_seconds;
      } else {
        cpu_roots += s.roots;
        cpu_wall += s.wall_s;
      }
    }
    const double n = static_cast<double>(b.samples.size());
    rep.set("cpu.host_mteps", hbc::core::as_mteps(hbc::core::teps_bc(g, cpu_roots, cpu_wall)));
    rep.set("kernels.host_mteps", ratio(static_cast<double>(kernel_edges), kernel_wall) / 1e6);
    rep.set("core.computes_per_request", ratio(static_cast<double>(computes), n));
    std::vector<double> submit_us = durations_ms(*tracer, "service.submit");
    for (double& x : submit_us) x *= 1e3;
    const LatencySummary sub = summarize(submit_us);
    rep.set("service.submit_us_p50", sub.p50);
    rep.set("service.submit_us_p99", sub.p99);
    rep.set("service.hit_ratio", ratio(static_cast<double>(hits), n));
    rep.set("service.coalesced_ratio", ratio(static_cast<double>(coalesced), n));
    rep.set("service.hit_latency_us_p50", median_of(hit_us));
    const LatencySummary qw = summarize(queue_wait);
    rep.set("service.queue_wait_ms_p50", qw.p50);
    rep.set("service.queue_wait_ms_p99", qw.p99);
    rep.set("service.queue_peak_depth", static_cast<double>(svc.metrics().queue_peak_depth));
    const LatencySummary cm = summarize(compute_ms);
    rep.set("service.compute_ms_p50", cm.p50);
    rep.set("service.compute_ms_p99", cm.p99);
    rep.set("trace.overhead_ratio", ratio(traced.get("qps"), rep.get("qps")));
    rep.note("traced phase: " + std::to_string(b.samples.size()) + " requests, " +
             std::to_string(queue_wait.size()) + " computed, " + std::to_string(hits) + " hits");

    // The simulated ledger of the GPU-model requests at the head of the
    // stream: a fixed set for one seed, so these repeat exactly.
    std::uint64_t ledger = 0, ledger_roots = 0;
    double sim_s = 0.0, cycles = 0.0, inspected = 0.0, atomics = 0.0;
    for (const Sample& s : a.samples) {
      if (s.index >= kLedgerRequests || !s.computed() ||
          !hbc::core::uses_gpu_model(s.entry.strategy)) {
        continue;
      }
      ++ledger;
      ledger_roots += s.roots;
      sim_s += s.kernel.sim_seconds;
      cycles += static_cast<double>(s.kernel.elapsed_cycles);
      inspected += static_cast<double>(s.kernel.counters.edges_inspected);
      atomics += static_cast<double>(s.kernel.counters.atomic_ops);
    }
    rep.set("kernels.sim_mteps", hbc::core::as_mteps(hbc::core::teps_bc(g, ledger_roots, sim_s)));
    rep.set("gpusim.sim_cycles", ratio(cycles, ledger));
    rep.set("gpusim.edges_inspected", ratio(inspected, ledger));
    rep.set("gpusim.atomic_ops", ratio(atomics, ledger));
    rep.note("simulated ledger: " + std::to_string(ledger) + " GPU-model requests among the first " +
             std::to_string(kLedgerRequests));
    write_workload_file(p, stream, next.load());
  }
  rep.set("peak_rss_mb", peak_rss_mib());

  // Answer checks on a seeded sample: bit-equal to a direct core::compute
  // with the same options, and cpu-serial answers within 1e-9 of the
  // GPU-model work-efficient kernel on the same roots.
  check_answers(phases, [&](const Sample& s) {
    const bool same = same_bits(s.result->scores, direct(g, stream, s.entry, s.entry.strategy).scores);
    return same && (s.entry.strategy != Strategy::CpuSerial ||
                    close_to(s.result->scores, direct(g, stream, s.entry, Strategy::WorkEfficient).scores));
  }, out);

  if (p.trace) finish_trace(p, g, *tracer, out);
  return out;
}

// ---------------------------------------------------------------------------
// fleet-rgg: one sequential client against a coordinator with two
// in-process workers over a Unix socket.

struct FleetState {
  std::shared_ptr<const CSRGraph> g;
  std::string socket_path;
  std::unique_ptr<hbc::net::Coordinator> coord;
  std::vector<std::unique_ptr<hbc::net::Worker>> workers;
  std::vector<std::thread> threads;

  FleetState() = default;
  FleetState(const FleetState&) = delete;
  FleetState& operator=(const FleetState&) = delete;
  ~FleetState() { stop(); }

  /// Drain the fleet and join the worker threads. Idempotent.
  void stop() {
    for (auto& w : workers) w->request_stop();
    if (coord) coord->drain();
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
    if (!socket_path.empty()) std::remove(socket_path.c_str());
  }
};

Outcome fleet_rgg(const Params& p) {
  Outcome out;
  Report& rep = out.report;
  const std::unique_ptr<Tracer> tracer = p.trace ? std::make_unique<Tracer>() : nullptr;
  // 8 roots land in 8 of the 14 blocks of the default grid, so a query moves
  // 8 shards and a worker's share computes in about half of its 10 ms ticket
  // poll. With 16 roots (14 shards) the compute sat near the tick: a fifth
  // of the queries waited a second tick, and host noise moved that share,
  // and with it qps, by 10% from run to run.
  const RequestStream stream(
      {.seed = p.seed, .sample_roots = 8, .cold_strategies = {Strategy::WorkEfficient}});
  int fleet_no = 0;

  auto st = set_up(rep, [&] {
    auto s = std::make_unique<FleetState>();
    Span setup(tracer.get(), "setup", 0);
    s->g = build_graph("rgg", p.fleet_scale, p.seed, tracer.get(), setup.id());
    // A relative path: the working directory may be deeper than a Unix
    // socket path can be long.
    s->socket_path = "perfbench-" + std::to_string(::getpid()) + "-" +
                     std::to_string(fleet_no++) + ".sock";
    hbc::net::CoordinatorConfig cc;
    cc.listen = hbc::net::Endpoint::parse("unix:" + s->socket_path);
    cc.cache_bytes = kCacheBytes;
    s->coord = std::make_unique<hbc::net::Coordinator>(std::move(cc));
    for (int k = 0; k < 2; ++k) {
      hbc::net::WorkerConfig wc;
      wc.connect = hbc::net::Endpoint::parse("unix:" + s->socket_path);
      wc.name = "worker-" + std::to_string(k);
      wc.service.workers = 2;
      wc.service.cache_bytes = kCacheBytes;
      wc.graph_loader = [g = s->g](const std::string&) { return *g; };
      // Each worker thread marks every shard it serves with a "shard-sent"
      // instant in its own sink; net.shard_balance counts them.
      wc.tracer = tracer.get();
      s->workers.push_back(std::make_unique<hbc::net::Worker>(std::move(wc)));
    }
    for (auto& w : s->workers) {
      s->threads.emplace_back([worker = w.get()] {
        try {
          worker->run();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "fleet-rgg: worker stopped: %s\n", e.what());
        }
      });
    }
    if (s->coord->wait_for_workers(2, std::chrono::seconds(20)) < 2) {
      throw std::runtime_error("fleet-rgg: workers did not connect");
    }
    const std::string spec = "gen:rgg:" + std::to_string(p.fleet_scale) + ":" + std::to_string(p.seed);
    if (s->coord->load_graph(kGraphId, s->g, spec) != 2) {
      throw std::runtime_error("fleet-rgg: graph placement failed");
    }
    for (std::uint32_t j = 0; j < kWarmSize; ++j) {
      if (!s->coord->query(stream.request(stream.warm(j), kTopK)).ok()) {
        throw std::runtime_error("fleet-rgg: warm-set query failed");
      }
    }
    for (std::uint64_t k = 0; k < kWarmupRequests; ++k) {
      if (!s->coord->query(stream.request(stream.at(kWarmupFirstIndex + k), kTopK)).ok()) {
        throw std::runtime_error("fleet-rgg: warm-up query failed");
      }
    }
    return s;
  });
  const CSRGraph& g = *st->g;
  hbc::net::Coordinator& coord = *st->coord;
  rep.note(graph_facts("rgg scale " + std::to_string(p.fleet_scale), g));

  auto issue = [&](std::uint64_t i, Tracer* traced) {
    Sample s;
    s.index = i;
    s.entry = stream.at(i);
    hbc::service::Request req = stream.request(s.entry, kTopK);
    Span rq(traced, "request", i + 1);
    const Clock::time_point t0 = Clock::now();
    hbc::service::Response r;
    {
      Span q(traced, "net.query", i + 1, rq.id());
      r = coord.query(std::move(req));
    }
    s.latency_ms = since(t0) * 1e3;
    take_response(s, r, picked_for_check(p.seed, i));
    return s;
  };

  std::atomic<std::uint64_t> next{0};
  const PhaseResult a = drive(1, next, p.trace ? p.seconds / 2 : p.seconds, nullptr, issue);
  serving_end_to_end(g, a, rep);
  std::vector<const PhaseResult*> phases = {&a};
  PhaseResult b;
  hbc::net::DistStats d0, d1;
  std::uint64_t computes = 0, traced_from_ns = 0, traced_to_ns = 0;
  if (p.trace) {
    d0 = coord.stats();
    const std::uint64_t before = hbc::core::compute_invocations();
    traced_from_ns = tracer->now_ns();
    b = drive(1, next, p.seconds / 2, tracer.get(), issue);
    traced_to_ns = tracer->now_ns();
    computes = hbc::core::compute_invocations() - before;
    d1 = coord.stats();
    phases.push_back(&b);
  }
  rep.set("peak_rss_mb", peak_rss_mib());

  // Answer checks on a seeded sample: fleet answers equal a standalone
  // core::compute bit for bit.
  check_answers(phases, [&](const Sample& s) {
    return same_bits(s.result->scores, direct(g, stream, s.entry, s.entry.strategy).scores);
  }, out);

  // The workers record into the tracer, so it is read only once their
  // threads have been joined.
  st->stop();
  if (p.trace) {
    Report traced;
    serving_end_to_end(g, b, traced);
    const auto req_ms = request_ms(*tracer);
    std::vector<double> overhead;
    for (const Sample& s : b.samples) {
      if (s.computed()) overhead.push_back(req_ms.at(s.index + 1) - s.compute_ms);
    }
    const LatencySummary ov = summarize(overhead);
    rep.set("net.overhead_ms_p50", ov.p50);
    rep.set("net.overhead_ms_p99", ov.p99);
    const double queries = static_cast<double>(d1.queries - d0.queries);
    const double hits = static_cast<double>(d1.cache_hits - d0.cache_hits);
    const double dispatched = static_cast<double>(d1.shards_dispatched - d0.shards_dispatched);
    const double wasted = static_cast<double>(
        (d1.shard_retries - d0.shard_retries) +
        (d1.straggler_redispatches - d0.straggler_redispatches) +
        (d1.local_fallbacks - d0.local_fallbacks));
    rep.set("net.hit_ratio", ratio(hits, queries));
    rep.set("net.shards_per_query", ratio(dispatched, queries - hits));
    rep.set("net.wasted_shard_ratio", ratio(wasted, dispatched));
    rep.set("core.computes_per_request",
            ratio(static_cast<double>(computes), static_cast<double>(b.samples.size())));
    rep.set("trace.overhead_ratio", ratio(traced.get("qps"), rep.get("qps")));
    rep.note("traced phase: " + std::to_string(b.samples.size()) + " queries, " +
             std::to_string(overhead.size()) + " computed");

    // Shards each worker served during the traced phase. Only the kept
    // fleet's two worker threads record then; a worker that served none
    // counts as 0.
    std::map<std::uint32_t, std::uint64_t> served;  // by worker sink tid
    for (const hbc::trace::Event& e : tracer->events()) {
      if (std::strcmp(e.name, "shard-sent") == 0 && e.ts_ns >= traced_from_ns &&
          e.ts_ns <= traced_to_ns) {
        ++served[e.tid];
      }
    }
    std::vector<std::uint64_t> counts;
    for (const auto& [tid, n] : served) counts.push_back(n);
    counts.resize(std::max<std::size_t>(counts.size(), st->workers.size()), 0);
    const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    rep.set("net.shard_balance",
            ratio(static_cast<double>(*hi), static_cast<double>(std::max<std::uint64_t>(*lo, 1))));
    finish_trace(p, g, *tracer, out);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"batch-kron", "serve-mixed", "fleet-rgg"};
  return names;
}

Outcome run_workload(const Params& params) {
  Outcome out;
  if (params.workload == "batch-kron") out = batch_kron(params);
  else if (params.workload == "serve-mixed") out = serve_mixed(params);
  else if (params.workload == "fleet-rgg") out = fleet_rgg(params);
  else throw std::invalid_argument("unknown workload: " + params.workload);
  out.report.note(host_facts(params.git_sha));
  if (out.failed > 0) out.correct = false;
  return out;
}

}  // namespace perfbench
