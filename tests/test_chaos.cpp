// Fleet self-healing under deterministic network chaos.
//
// Three layers, bottom up:
//  1. ChaosPlan grammar + fate hashing: pure, seeded, reproducible.
//  2. ChaosInjector frame fates: drop/dup/trunc/flip/delay/partition do
//     exactly what docs/resilience.md promises, at the byte level.
//  3. The self-healing loop end to end: a real fleet under injected
//     faults — heartbeat quarantine -> probation -> readmission, worker
//     rejoin across a coordinator crash, durable warm restart — with the
//     distributed scores required to stay MEMCMP-IDENTICAL to standalone
//     core::compute through all of it. "Close" is not a pass.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/bc.hpp"
#include "dyn/versioned_graph.hpp"
#include "graph/generators.hpp"
#include "net/chaos.hpp"
#include "net/coordinator.hpp"
#include "net/snapshot.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "net/worker.hpp"
#include "service/service.hpp"

using namespace hbc;
using namespace std::chrono_literals;
namespace wire = hbc::net::wire;

namespace {

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Socket paths live under /tmp: build trees routinely exceed
// sockaddr_un's 108-byte limit, the system tmpdir does not.
class SocketDir {
 public:
  SocketDir() {
    char tmpl[] = "/tmp/hbc-chaos-XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  ~SocketDir() {
    if (!dir_.empty()) {
      std::remove((dir_ + "/c.sock").c_str());
      ::rmdir(dir_.c_str());
    }
  }
  std::string sock() const { return "unix:" + dir_ + "/c.sock"; }

 private:
  std::string dir_;
};

/// Scratch directory for snapshot state, recursively removed.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/hbc-snap-XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

graph::CSRGraph test_graph() {
  return graph::gen::family_by_name("smallworld").make(8, 1);
}

/// Coordinator + N in-process workers, with the coordinator replaceable
/// mid-test (crash/restart scenarios destroy and rebuild it while the
/// worker threads live on and rejoin).
class ChaosFleet {
 public:
  ChaosFleet(std::size_t n_workers, net::CoordinatorConfig cfg,
             std::vector<net::WorkerConfig> worker_cfgs) {
    cfg.listen = net::Endpoint::parse(dir_.sock());
    cfg_ = cfg;
    coordinator = std::make_unique<net::Coordinator>(cfg_);
    for (std::size_t i = 0; i < n_workers; ++i) {
      net::WorkerConfig wc =
          i < worker_cfgs.size() ? std::move(worker_cfgs[i]) : net::WorkerConfig{};
      wc.connect = net::Endpoint::parse(dir_.sock());
      if (wc.name == "worker") wc.name = "chaos-worker-" + std::to_string(i);
      if (wc.service.workers == 0) wc.service.workers = 2;
      workers.push_back(std::make_unique<net::Worker>(std::move(wc)));
    }
    // One worker at a time: slot ids follow connect order, so connecting
    // workers[i] only after the first i are ready gives it slot i + 1 and
    // tests can address a configured worker by its slot.
    for (std::size_t i = 0; i < workers.size(); ++i) {
      threads.emplace_back([worker = workers[i].get()] { worker->run(); });
      coordinator->wait_for_workers(i + 1, std::chrono::seconds(20));
    }
  }

  /// Abrupt coordinator death (no drain) followed by a warm restart on
  /// the same endpoint/config — the crash the snapshot layer exists for.
  void crash_and_restart_coordinator() {
    coordinator.reset();
    coordinator = std::make_unique<net::Coordinator>(cfg_);
  }

  /// Stop workers, drain, join — after this worker->stats() reads are
  /// race-free. Idempotent with the destructor.
  void shutdown() {
    for (auto& w : workers) w->request_stop();
    if (coordinator) coordinator->drain();
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }

  ~ChaosFleet() { shutdown(); }

  SocketDir dir_;
  net::CoordinatorConfig cfg_;
  std::unique_ptr<net::Coordinator> coordinator;
  std::vector<std::unique_ptr<net::Worker>> workers;
  std::vector<std::thread> threads;
};

net::WorkerConfig in_memory_worker(std::shared_ptr<const graph::CSRGraph> g) {
  net::WorkerConfig wc;
  wc.graph_loader = [g](const std::string&) { return *g; };
  return wc;
}

/// Self-healing worker config: fast heartbeats, aggressive rejoin.
net::WorkerConfig healing_worker(std::shared_ptr<const graph::CSRGraph> g) {
  net::WorkerConfig wc = in_memory_worker(g);
  wc.heartbeat_interval = 25ms;
  wc.max_heartbeat_misses = 2;
  wc.rejoin_attempts = 30;
  wc.connect_backoff = 5ms;
  wc.max_backoff = 100ms;
  return wc;
}

/// Encode one frame the way Conn::send does (for injector unit tests).
std::vector<std::uint8_t> sample_frame() {
  return wire::encode(wire::HeartbeatMsg{42, 1}, 7);
}

}  // namespace

// --- 1. plan grammar and fate hashing -------------------------------------

TEST(ChaosPlan, ParseSignatureRoundTrip) {
  const std::string spec =
      "seed=11;drop,rate=0.05;delay,frames=3:9,ms=40;dup,rate=0.01;"
      "trunc,frames=2;flip,rate=0.002;partition,after=40,for=20";
  const net::ChaosPlan plan = net::ChaosPlan::parse(spec);
  EXPECT_EQ(plan.seed(), 11u);
  EXPECT_EQ(plan.specs().size(), 6u);

  // Canonical form round-trips: parse(signature()) == same behaviour.
  const std::string sig = plan.signature();
  const net::ChaosPlan again = net::ChaosPlan::parse(sig);
  EXPECT_EQ(again.signature(), sig);
  for (std::uint64_t stream : {0ull, 7ull, 0x8000000000000001ull}) {
    for (std::uint64_t ordinal = 0; ordinal < 200; ++ordinal) {
      const auto a = plan.fate(stream, ordinal);
      const auto b = again.fate(stream, ordinal);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        EXPECT_EQ(a->kind, b->kind);
      }
    }
  }
}

TEST(ChaosPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(net::ChaosPlan::parse(""), std::invalid_argument);
  EXPECT_THROW(net::ChaosPlan::parse("explode,rate=0.5"), std::invalid_argument);
  EXPECT_THROW(net::ChaosPlan::parse("drop,rate=1.5"), std::invalid_argument);
  EXPECT_THROW(net::ChaosPlan::parse("drop,rate=-0.1"), std::invalid_argument);
  EXPECT_THROW(net::ChaosPlan::parse("drop,rate=abc"), std::invalid_argument);
  EXPECT_THROW(net::ChaosPlan::parse("seed=notanumber;drop,rate=0.1"),
               std::invalid_argument);
  // A clause that can never target a frame is a spec bug, not a no-op.
  EXPECT_THROW(net::ChaosPlan::parse("drop"), std::invalid_argument);
}

TEST(ChaosPlan, FateIsPureAndSeedSensitive) {
  const net::ChaosPlan a = net::ChaosPlan::parse("seed=1;drop,rate=0.5");
  const net::ChaosPlan b = net::ChaosPlan::parse("seed=2;drop,rate=0.5");

  std::size_t hits_a = 0;
  std::size_t diverged = 0;
  for (std::uint64_t ordinal = 0; ordinal < 2000; ++ordinal) {
    const auto f1 = a.fate(5, ordinal);
    const auto f2 = a.fate(5, ordinal);
    ASSERT_EQ(f1.has_value(), f2.has_value()) << "fate must be pure";
    if (f1) ++hits_a;
    if (f1.has_value() != b.fate(5, ordinal).has_value()) ++diverged;
  }
  // rate=0.5 over 2000 ordinals: the seeded hash should select roughly
  // half, and a different seed should select a different set.
  EXPECT_GT(hits_a, 800u);
  EXPECT_LT(hits_a, 1200u);
  EXPECT_GT(diverged, 200u);
}

TEST(ChaosPlan, ExplicitFrameListAndPartitionWindow) {
  const net::ChaosPlan plan =
      net::ChaosPlan::parse("seed=3;trunc,frames=2:5;partition,after=10,for=4");
  for (std::uint64_t ordinal = 0; ordinal < 20; ++ordinal) {
    const auto f = plan.fate(1, ordinal);
    if (ordinal == 2 || ordinal == 5) {
      ASSERT_TRUE(f.has_value()) << ordinal;
      EXPECT_EQ(f->kind, net::ChaosKind::Truncate) << ordinal;
    } else if (ordinal >= 10 && ordinal < 14) {
      ASSERT_TRUE(f.has_value()) << ordinal;
      EXPECT_EQ(f->kind, net::ChaosKind::Partition) << ordinal;
    } else {
      EXPECT_FALSE(f.has_value()) << ordinal;
    }
  }
}

// --- 2. injector frame fates ----------------------------------------------

TEST(ChaosInjector, DropSwallowsTheFrame) {
  auto plan = net::ChaosPlan::parse_shared("seed=1;drop,frames=0");
  net::ChaosInjector inj(plan, 1);
  std::vector<std::uint8_t> out;
  inj.on_send(sample_frame(), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(plan->stats().dropped, 1u);
  // The next (untargeted) frame passes clean.
  inj.on_send(sample_frame(), out);
  EXPECT_EQ(out, sample_frame());
}

TEST(ChaosInjector, DuplicateSendsTheFrameTwice) {
  auto plan = net::ChaosPlan::parse_shared("seed=1;dup,frames=0");
  net::ChaosInjector inj(plan, 1);
  std::vector<std::uint8_t> out;
  const std::vector<std::uint8_t> frame = sample_frame();
  inj.on_send(frame, out);
  ASSERT_EQ(out.size(), 2 * frame.size());
  EXPECT_EQ(std::memcmp(out.data(), frame.data(), frame.size()), 0);
  EXPECT_EQ(std::memcmp(out.data() + frame.size(), frame.data(), frame.size()), 0);
  EXPECT_EQ(plan->stats().duplicated, 1u);
}

TEST(ChaosInjector, TruncateEmitsAStrictPrefix) {
  auto plan = net::ChaosPlan::parse_shared("seed=9;trunc,frames=0");
  net::ChaosInjector inj(plan, 1);
  std::vector<std::uint8_t> out;
  const std::vector<std::uint8_t> frame = sample_frame();
  inj.on_send(frame, out);
  ASSERT_FALSE(out.empty());
  ASSERT_LT(out.size(), frame.size());
  EXPECT_EQ(std::memcmp(out.data(), frame.data(), out.size()), 0);
  EXPECT_EQ(plan->stats().truncated, 1u);
}

TEST(ChaosInjector, FlipInvertsOneBitInTheMagicVersionRegion) {
  auto plan = net::ChaosPlan::parse_shared("seed=5;flip,frames=0");
  net::ChaosInjector inj(plan, 1);
  std::vector<std::uint8_t> out;
  const std::vector<std::uint8_t> frame = sample_frame();
  inj.on_send(frame, out);
  ASSERT_EQ(out.size(), frame.size());
  std::size_t differing_bits = 0;
  std::size_t first_diff = frame.size();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const std::uint8_t x = out[i] ^ frame[i];
    if (x != 0 && first_diff == frame.size()) first_diff = i;
    for (int b = 0; b < 8; ++b) differing_bits += (x >> b) & 1;
  }
  EXPECT_EQ(differing_bits, 1u);
  // Constrained to the first 6 header bytes: guaranteed typed
  // BadMagic/BadVersion at the receiver, never a corrupted payload.
  EXPECT_LT(first_diff, 6u);
  wire::Frame f;
  std::size_t consumed = 0;
  const wire::DecodeStatus st = wire::extract_frame(out, f, consumed);
  EXPECT_TRUE(st == wire::DecodeStatus::BadMagic ||
              st == wire::DecodeStatus::BadVersion)
      << wire::to_string(st);
}

TEST(ChaosInjector, DelayHoldsFramesAndReleasesInOrder) {
  auto plan = net::ChaosPlan::parse_shared("seed=1;delay,frames=0,ms=30");
  net::ChaosInjector inj(plan, 1);
  std::vector<std::uint8_t> out;
  const std::vector<std::uint8_t> first = wire::encode(wire::HeartbeatMsg{1, 1}, 1);
  const std::vector<std::uint8_t> second = wire::encode(wire::HeartbeatMsg{2, 1}, 2);
  inj.on_send(first, out);
  EXPECT_TRUE(out.empty());  // held
  EXPECT_TRUE(inj.holding());
  // An untargeted frame queued behind a held one must also wait: delay
  // models added latency, never reordering.
  inj.on_send(second, out);
  EXPECT_TRUE(out.empty());
  inj.release_due(out);
  EXPECT_TRUE(out.empty()) << "released before the deadline";
  std::this_thread::sleep_for(60ms);
  inj.release_due(out);
  std::vector<std::uint8_t> expected = first;
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(out, expected);
  EXPECT_FALSE(inj.holding());
  EXPECT_EQ(plan->stats().delayed, 1u);
}

TEST(ChaosInjector, NullPlanIsInert) {
  net::ChaosInjector inj(nullptr, 1);
  std::vector<std::uint8_t> out;
  inj.on_send(sample_frame(), out);
  EXPECT_EQ(out, sample_frame());
  EXPECT_FALSE(inj.holding());
}

// --- 3. the self-healing loop, end to end ---------------------------------

TEST(ChaosFleetE2E, DropChaosScoresStayBitwiseIdentical) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  core::Options opt;
  opt.strategy = core::Strategy::WorkEfficient;
  const core::BCResult standalone = core::compute(*g, opt);

  // 5% of frames vanish, both directions. Recovery is straggler
  // re-dispatch + shard retry + local fallback + worker rejoin — every
  // path reassembles the identical bits.
  auto plan = net::ChaosPlan::parse_shared("seed=11;drop,rate=0.05");
  net::CoordinatorConfig cfg;
  cfg.chaos = plan;
  cfg.straggler_timeout = 50ms;
  cfg.control_timeout = 500ms;
  cfg.heartbeat_timeout = 500ms;
  std::vector<net::WorkerConfig> wcfgs;
  for (std::size_t i = 0; i < 2; ++i) {
    net::WorkerConfig wc = healing_worker(g);
    wc.chaos = plan;
    wcfgs.push_back(std::move(wc));
  }
  ChaosFleet fleet(2, std::move(cfg), std::move(wcfgs));

  // Control-plane traffic is fair game for the chaos plan too: a failed
  // broadcast is re-issued (idempotent), with pump time in between so
  // disconnected workers can rejoin before the retry.
  std::size_t confirmed = 0;
  for (int attempt = 0; attempt < 50 && confirmed < 2; ++attempt) {
    confirmed = fleet.coordinator->load_graph("g0", g, "");
    if (confirmed < 2) fleet.coordinator->run_for(100ms);
  }
  ASSERT_GE(confirmed, 1u);

  for (int i = 0; i < 3; ++i) {
    service::Request req;
    req.graph_id = "g0";
    req.options = opt;
    const service::Response resp = fleet.coordinator->query(req);
    ASSERT_TRUE(resp.ok()) << resp.error;
    ASSERT_NE(resp.result, nullptr);
    EXPECT_TRUE(bitwise_equal(resp.result->scores, standalone.scores))
        << "query " << i << " diverged under drop chaos";
    EXPECT_FALSE(resp.degraded);
  }
  // The plan actually fired: frames were consulted and some were hit.
  EXPECT_GT(plan->stats().frames, 0u);
  EXPECT_GE(plan->stats().injected(), 1u);
}

TEST(ChaosFleetE2E, FlipChaosPoisonsTypedAndFleetRecovers) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  core::Options opt;
  opt.strategy = core::Strategy::WorkEfficient;
  const core::BCResult standalone = core::compute(*g, opt);

  // Bit-flips in the header region of coordinator->worker frames: the
  // worker sees a typed BadMagic/BadVersion, treats the stream as
  // poisoned, drops the connection, and rejoins. Coordinator-side only:
  // coordinator stream ids are accept slots, which advance on every
  // rejoin, so a fate at a given ordinal cannot recur forever the way a
  // worker-side flip of Hello frame 0 would (fixed stream id + ordinal
  // restart = a permanently blackholed handshake).
  auto plan = net::ChaosPlan::parse_shared("seed=7;flip,rate=0.05");
  net::CoordinatorConfig cfg;
  cfg.chaos = plan;
  cfg.straggler_timeout = 50ms;
  cfg.control_timeout = 500ms;
  ChaosFleet fleet(2, std::move(cfg), {healing_worker(g), healing_worker(g)});

  // Control-plane traffic is fair game for the chaos plan too: a failed
  // broadcast is re-issued (idempotent), with pump time in between so
  // disconnected workers can rejoin before the retry.
  std::size_t confirmed = 0;
  for (int attempt = 0; attempt < 50 && confirmed < 2; ++attempt) {
    confirmed = fleet.coordinator->load_graph("g0", g, "");
    if (confirmed < 2) fleet.coordinator->run_for(100ms);
  }
  ASSERT_GE(confirmed, 1u);

  for (int i = 0; i < 3; ++i) {
    service::Request req;
    req.graph_id = "g0";
    req.options = opt;
    const service::Response resp = fleet.coordinator->query(req);
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_TRUE(bitwise_equal(resp.result->scores, standalone.scores))
        << "query " << i << " diverged under flip chaos";
  }
}

TEST(ChaosFleetE2E, QuarantineProbationReadmissionStateMachine) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());

  // The worker heartbeats every 400ms but the coordinator demands one
  // every 120ms: quarantined while silent, probation on the first frame,
  // readmitted after probation_heartbeats more.
  net::CoordinatorConfig cfg;
  cfg.heartbeat_timeout = 120ms;
  cfg.probation_heartbeats = 2;
  net::WorkerConfig wc = in_memory_worker(g);
  wc.heartbeat_interval = 400ms;
  ChaosFleet fleet(1, std::move(cfg), {std::move(wc)});
  ASSERT_EQ(fleet.coordinator->worker_count(), 1u);
  ASSERT_EQ(fleet.coordinator->worker_health(1), wire::HealthState::Healthy);

  // 300ms of silence > 120ms timeout, and the first heartbeat is still
  // 100ms away: the detector must have quarantined the worker.
  fleet.coordinator->run_for(300ms);
  EXPECT_EQ(fleet.coordinator->worker_health(1), wire::HealthState::Quarantined);
  EXPECT_GE(fleet.coordinator->stats().heartbeat_misses, 1u);
  EXPECT_GE(fleet.coordinator->stats().quarantines, 1u);

  // Two heartbeat periods later (400ms, 800ms) the worker has delivered
  // its probation quota and earned readmission. With its interval still
  // 3x the detector deadline it immediately starts flapping back toward
  // quarantine — the detector is SUPPOSED to oscillate for a worker this
  // slow — so assert the counters that prove the full cycle ran rather
  // than a stable final state.
  fleet.coordinator->run_for(1500ms);
  EXPECT_GE(fleet.coordinator->stats().readmissions, 1u);
  ASSERT_TRUE(fleet.coordinator->worker_health(1).has_value());

  // The worker was told: it received the QuarantineMsg notices.
  fleet.shutdown();
  EXPECT_GE(fleet.workers[0]->stats().quarantine_notices, 1u);
  EXPECT_GE(fleet.workers[0]->stats().heartbeats, 2u);
}

TEST(ChaosFleetE2E, QuarantinedWorkerGetsNoDispatchesButFleetAnswers) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  core::Options opt;
  opt.strategy = core::Strategy::WorkEfficient;
  const core::BCResult standalone = core::compute(*g, opt);

  net::CoordinatorConfig cfg;
  cfg.heartbeat_timeout = 120ms;
  cfg.probation_heartbeats = 1000;  // effectively: never readmit
  cfg.straggler_timeout = 100ms;
  // Worker 0 (slot 1) heartbeats too slowly and will be quarantined;
  // worker 1 (slot 2) is prompt and carries the query.
  net::WorkerConfig slow = in_memory_worker(g);
  slow.heartbeat_interval = 10000ms;
  net::WorkerConfig prompt = in_memory_worker(g);
  prompt.heartbeat_interval = 30ms;
  std::vector<net::WorkerConfig> wcfgs;
  wcfgs.push_back(std::move(slow));
  wcfgs.push_back(std::move(prompt));
  ChaosFleet fleet(2, std::move(cfg), std::move(wcfgs));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 2u);

  fleet.coordinator->run_for(300ms);
  ASSERT_EQ(fleet.coordinator->worker_health(1), wire::HealthState::Quarantined);

  service::Request req;
  req.graph_id = "g0";
  req.options = opt;
  const service::Response resp = fleet.coordinator->query(req);
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_TRUE(bitwise_equal(resp.result->scores, standalone.scores));
  EXPECT_FALSE(resp.degraded);
}

TEST(ChaosFleetE2E, WorkersRejoinAcrossCoordinatorCrashAndScoresHold) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  core::Options opt;
  opt.strategy = core::Strategy::WorkEfficient;
  const core::BCResult standalone = core::compute(*g, opt);

  TempDir snap;
  net::CoordinatorConfig cfg;
  cfg.snapshot_dir = snap.path();
  cfg.straggler_timeout = 100ms;
  ChaosFleet fleet(2, std::move(cfg), {healing_worker(g), healing_worker(g)});
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 2u);

  service::Request req;
  req.graph_id = "g0";
  req.options = opt;
  const service::Response before = fleet.coordinator->query(req);
  ASSERT_TRUE(before.ok()) << before.error;
  ASSERT_TRUE(bitwise_equal(before.result->scores, standalone.scores));

  // Persist the now-warm cache, then kill the coordinator abruptly (no
  // drain, no goodbyes) and restart it on the same endpoint.
  fleet.coordinator->save_snapshot();
  fleet.crash_and_restart_coordinator();

  // Warm restart: the registry came back from disk...
  const net::SnapshotInfo& info = fleet.coordinator->snapshot_info();
  EXPECT_TRUE(info.attempted);
  EXPECT_TRUE(info.ok) << info.error;
  EXPECT_EQ(info.graphs, 1u);
  EXPECT_GE(info.cache_entries, 1u);

  // ...the cache survived the crash...
  const service::Response cached = fleet.coordinator->query(req);
  ASSERT_TRUE(cached.ok()) << cached.error;
  EXPECT_TRUE(cached.from_cache);
  EXPECT_TRUE(bitwise_equal(cached.result->scores, standalone.scores));

  // ...and both workers found their way home and serve shards again.
  ASSERT_EQ(fleet.coordinator->wait_for_workers(2, std::chrono::seconds(20)), 2u);
  service::Request fresh;
  fresh.graph_id = "g0";
  fresh.options = opt;
  fresh.options.seed = 99;  // different cache key: forces a recompute
  const service::Response after = fleet.coordinator->query(fresh);
  ASSERT_TRUE(after.ok()) << after.error;
  EXPECT_TRUE(bitwise_equal(after.result->scores, standalone.scores));

  fleet.shutdown();
  for (const auto& w : fleet.workers) {
    EXPECT_GE(w->stats().reconnects, 1u) << "worker never rejoined";
  }
}

// --- durable warm restart, no fleet required ------------------------------

TEST(ChaosSnapshot, WarmRestartRestoresRegistryCacheAndMutationHistory) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  core::Options opt;
  opt.strategy = core::Strategy::WorkEfficient;

  dyn::UpdateBatch batch;
  batch.insert(0, 100).insert(5, 200).remove(0, 1);
  dyn::VersionedGraph vg(g);
  vg.apply(batch);
  const core::BCResult standalone = core::compute(*vg.current().graph, opt);

  TempDir snap;
  SocketDir sock1;
  std::uint64_t fp_after_mutate = 0;
  {
    net::CoordinatorConfig cfg;
    cfg.listen = net::Endpoint::parse(sock1.sock());
    cfg.snapshot_dir = snap.path();
    net::Coordinator c(cfg);
    EXPECT_FALSE(c.snapshot_info().attempted);  // nothing to restore yet
    c.load_graph("g0", g, "");
    c.mutate_graph("g0", batch);
    fp_after_mutate = c.graph_fingerprint("g0");

    service::Request req;
    req.graph_id = "g0";
    req.options = opt;
    const service::Response r = c.query(req);  // local fallback, then cached
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_TRUE(bitwise_equal(r.result->scores, standalone.scores));
    c.save_snapshot();
  }  // abrupt destruction: the crash

  SocketDir sock2;
  net::CoordinatorConfig cfg2;
  cfg2.listen = net::Endpoint::parse(sock2.sock());
  cfg2.snapshot_dir = snap.path();
  net::Coordinator c2(cfg2);
  const net::SnapshotInfo& info = c2.snapshot_info();
  ASSERT_TRUE(info.attempted);
  ASSERT_TRUE(info.ok) << info.error;
  EXPECT_EQ(info.graphs, 1u);
  EXPECT_GE(info.cache_entries, 1u);
  // The mutated epoch came back: same fingerprint, same bits, warm cache.
  EXPECT_EQ(c2.graph_fingerprint("g0"), fp_after_mutate);
  service::Request req;
  req.graph_id = "g0";
  req.options = opt;
  const service::Response r2 = c2.query(req);
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_TRUE(r2.from_cache);
  EXPECT_TRUE(bitwise_equal(r2.result->scores, standalone.scores));
}

TEST(ChaosSnapshot, CorruptManifestStartsFreshWithTypedError) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  TempDir snap;
  SocketDir sock1;
  {
    net::CoordinatorConfig cfg;
    cfg.listen = net::Endpoint::parse(sock1.sock());
    cfg.snapshot_dir = snap.path();
    net::Coordinator c(cfg);
    c.load_graph("g0", g, "");
  }
  // Stomp the manifest: the restore must fail TYPED and the coordinator
  // must start fresh — never UB, never half-restored state.
  {
    std::ofstream f(snap.path() + "/manifest.hbcs",
                    std::ios::binary | std::ios::trunc);
    f << "this is not a snapshot";
  }
  SocketDir sock2;
  net::CoordinatorConfig cfg2;
  cfg2.listen = net::Endpoint::parse(sock2.sock());
  cfg2.snapshot_dir = snap.path();
  net::Coordinator c2(cfg2);
  const net::SnapshotInfo& info = c2.snapshot_info();
  EXPECT_TRUE(info.attempted);
  EXPECT_FALSE(info.ok);
  EXPECT_FALSE(info.error.empty());
  EXPECT_EQ(info.graphs, 0u);
  // Fresh but functional: loads and serves as if no snapshot existed.
  service::Request req;
  req.graph_id = "g0";
  req.options.strategy = core::Strategy::WorkEfficient;
  EXPECT_EQ(c2.query(req).status, service::QueryStatus::GraphNotFound);
  c2.load_graph("g0", g, "");
  EXPECT_TRUE(c2.query(req).ok());
}

TEST(ChaosSnapshot, SaveLoadRoundTripAndExistenceProbe) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  TempDir dir;
  EXPECT_FALSE(net::snapshot_exists(dir.path()));
  EXPECT_THROW(net::load_snapshot(dir.path()), net::SnapshotError);

  net::Snapshot snap;
  net::SnapshotGraph sg;
  sg.id = "g0";
  sg.spec = "gen:smallworld:8:1";
  sg.base_fingerprint = 111;
  sg.fingerprint = 222;
  sg.epoch = 2;
  sg.history.push_back(wire::WireUpdate{0, 100, 1});
  sg.graph = g;
  snap.graphs.push_back(std::move(sg));
  net::SnapshotCacheEntry e;
  e.key = "k0";
  e.scores = {1.0, 2.5, -3.25};
  e.strategy = 3;
  e.roots_processed = 256;
  snap.cache.push_back(std::move(e));

  net::save_snapshot(dir.path(), snap);
  EXPECT_TRUE(net::snapshot_exists(dir.path()));
  const net::Snapshot back = net::load_snapshot(dir.path());
  ASSERT_EQ(back.graphs.size(), 1u);
  EXPECT_EQ(back.graphs[0].id, "g0");
  EXPECT_EQ(back.graphs[0].spec, "gen:smallworld:8:1");
  EXPECT_EQ(back.graphs[0].fingerprint, 222u);
  EXPECT_EQ(back.graphs[0].epoch, 2u);
  ASSERT_EQ(back.graphs[0].history.size(), 1u);
  ASSERT_NE(back.graphs[0].graph, nullptr);
  EXPECT_EQ(back.graphs[0].graph->num_vertices(), g->num_vertices());
  ASSERT_EQ(back.cache.size(), 1u);
  EXPECT_EQ(back.cache[0].key, "k0");
  EXPECT_TRUE(bitwise_equal(back.cache[0].scores, {1.0, 2.5, -3.25}));
}
