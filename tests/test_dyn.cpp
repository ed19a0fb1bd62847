// hbc::dyn — epoch-versioned mutable graphs and batched incremental BC.
//
// Pins the subsystem's contracts: epoch snapshots stay immutable under
// concurrent readers (this binary runs in the CI TSan job), a batch of
// updates produces exactly the scores of applying the same updates one
// edge at a time (cpu::DynamicBC is the reference), the churn threshold
// degrades to a full recompute, the service invalidates or patches cached
// results across mutations, and refreshed scores are bitwise-identical at
// every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cpu/brandes.hpp"
#include "cpu/dynamic_bc.hpp"
#include "dyn/incremental_bc.hpp"
#include "dyn/versioned_graph.hpp"
#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "service/service.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace {

using namespace hbc;
using graph::CSRGraph;
using graph::Edge;
using graph::VertexId;

void expect_scores_near(const std::vector<double>& got, const std::vector<double>& want,
                        double rel = 1e-7) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_NEAR(got[v], want[v], rel * std::max(1.0, std::abs(want[v])))
        << "vertex " << v;
  }
}

dyn::IncrementalConfig inc_cfg(std::size_t threads, double churn_threshold = 0.25) {
  dyn::IncrementalConfig cfg;
  cfg.threads = threads;
  cfg.churn_threshold = churn_threshold;
  return cfg;
}

service::ServiceConfig one_worker() {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  return cfg;
}

bool has_edge(const CSRGraph& g, VertexId u, VertexId v) {
  const auto nbrs = g.neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

/// A mixed batch of updates valid against `g`: `removes` existing edges
/// and `inserts` currently-absent pairs, all touching distinct edges (so
/// batch commit == any sequential application order).
dyn::UpdateBatch mixed_batch(const CSRGraph& g, std::size_t inserts, std::size_t removes,
                             std::uint64_t seed) {
  dyn::UpdateBatch batch;
  util::Xoshiro256 rng(seed);
  const VertexId n = g.num_vertices();
  std::vector<std::pair<VertexId, VertexId>> used;
  const auto fresh = [&](VertexId u, VertexId v) {
    const auto key = std::minmax(u, v);
    if (std::find(used.begin(), used.end(),
                  std::make_pair(key.first, key.second)) != used.end()) {
      return false;
    }
    used.emplace_back(key.first, key.second);
    return true;
  };
  while (batch.size() < inserts) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (u == v || has_edge(g, u, v) || !fresh(u, v)) continue;
    batch.insert(u, v);
  }
  while (batch.size() < inserts + removes) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) continue;
    const auto v = nbrs[rng.next_below(nbrs.size())];
    if (!fresh(u, v)) continue;
    batch.remove(u, v);
  }
  return batch;
}

// ---------------------------------------------------------------- epochs

TEST(VersionedGraph, CommitAdvancesEpochAndFingerprint) {
  dyn::VersionedGraph vg(graph::build_csr(4, std::vector<Edge>{{0, 1}, {1, 2}}));
  const dyn::Epoch e0 = vg.current();
  EXPECT_EQ(e0.id, 0u);
  EXPECT_EQ(e0.fingerprint, e0.graph->fingerprint());

  const dyn::CommitResult cr = vg.apply(dyn::UpdateBatch{}.insert(2, 3));
  EXPECT_EQ(cr.before.id, 0u);
  EXPECT_EQ(cr.after.id, 1u);
  EXPECT_NE(cr.after.fingerprint, e0.fingerprint);
  ASSERT_EQ(cr.applied.size(), 1u);
  EXPECT_EQ(cr.applied[0], (dyn::EdgeUpdate{2, 3, true}));
  EXPECT_TRUE(has_edge(*vg.current().graph, 2, 3));
  // The old epoch is untouched by the commit.
  EXPECT_FALSE(has_edge(*e0.graph, 2, 3));
}

TEST(VersionedGraph, LastOpWinsAndNoopsDrop) {
  dyn::VersionedGraph vg(graph::build_csr(4, std::vector<Edge>{{0, 1}, {1, 2}}));
  dyn::UpdateBatch batch;
  batch.insert(2, 3).remove(2, 3);  // cancels out -> no-op pair
  batch.insert(0, 1);               // already present -> no-op
  batch.remove(0, 3);               // absent -> no-op
  batch.insert(1, 1);               // self loop -> no-op
  batch.remove(1, 2).insert(1, 2).remove(1, 2);  // last op wins: remove
  const dyn::CommitResult cr = vg.apply(batch);
  ASSERT_EQ(cr.applied.size(), 1u);
  EXPECT_EQ(cr.applied[0], (dyn::EdgeUpdate{1, 2, false}));
  EXPECT_EQ(cr.noops, batch.size() - 1);
  EXPECT_FALSE(has_edge(*vg.current().graph, 1, 2));

  // An all-no-op batch keeps the epoch (no rebuild, same snapshot).
  const dyn::CommitResult noop = vg.apply(dyn::UpdateBatch{}.insert(0, 1));
  EXPECT_TRUE(noop.applied.empty());
  EXPECT_EQ(noop.after.id, cr.after.id);
  EXPECT_EQ(vg.epoch_id(), 1u);
}

TEST(VersionedGraph, OutOfRangeLeavesGraphUntouched) {
  dyn::VersionedGraph vg(graph::build_csr(3, std::vector<Edge>{{0, 1}}));
  EXPECT_THROW(vg.apply(dyn::UpdateBatch{}.insert(0, 2).insert(0, 7)),
               std::out_of_range);
  EXPECT_EQ(vg.epoch_id(), 0u);
  EXPECT_FALSE(has_edge(*vg.current().graph, 0, 2));
}

TEST(VersionedGraph, StaleStageThrowsOnCommit) {
  dyn::VersionedGraph vg(graph::build_csr(4, std::vector<Edge>{{0, 1}}));
  const dyn::CommitResult staged = vg.stage(dyn::UpdateBatch{}.insert(1, 2));
  vg.apply(dyn::UpdateBatch{}.insert(2, 3));  // another commit lands first
  EXPECT_THROW(vg.commit(staged), std::logic_error);
  EXPECT_EQ(vg.epoch_id(), 1u);
}

TEST(VersionedGraph, RejectsDirectedGraphs) {
  const CSRGraph directed = graph::build_csr(
      3, std::vector<Edge>{{0, 1}, {1, 2}}, {.symmetrize = false});
  EXPECT_THROW(dyn::VersionedGraph{directed}, std::invalid_argument);
}

TEST(VersionedGraph, EpochIsolationUnderConcurrentReaders) {
  // Readers continuously snapshot while a writer commits batches; each
  // snapshot must be internally consistent (fingerprint matches its own
  // graph) no matter when it was taken. TSan guards the memory model.
  dyn::VersionedGraph vg(
      graph::gen::small_world({.num_vertices = 64, .k = 2, .rewire_p = 0.0, .seed = 5}));
  const dyn::Epoch genesis = vg.current();
  const std::uint64_t genesis_edges = genesis.graph->num_undirected_edges();

  std::atomic<bool> stop{false};
  std::atomic<int> inconsistencies{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const dyn::Epoch e = vg.current();
        if (e.fingerprint != e.graph->fingerprint()) inconsistencies.fetch_add(1);
        if (e.id == 0 && e.graph->num_undirected_edges() != genesis_edges) {
          inconsistencies.fetch_add(1);
        }
      }
    });
  }
  for (VertexId i = 0; i + 1 < 16; ++i) {
    vg.apply(dyn::UpdateBatch{}.insert(i, static_cast<VertexId>(i + 33)));
  }
  stop.store(true);
  for (auto& r : readers) r.join();

  EXPECT_EQ(inconsistencies.load(), 0);
  EXPECT_GT(vg.epoch_id(), 0u);
  // A reader that held the genesis epoch across every commit still sees
  // the original structure.
  EXPECT_EQ(genesis.graph->num_undirected_edges(), genesis_edges);
  EXPECT_EQ(genesis.graph->fingerprint(), genesis.fingerprint);
}

// ------------------------------------------------------- incremental BC

TEST(IncrementalBC, BatchMatchesSequentialSingleEdgeUpdates) {
  const CSRGraph g = graph::gen::small_world({.num_vertices = 60, .k = 2, .seed = 3});
  const dyn::UpdateBatch batch = mixed_batch(g, 5, 3, 11);

  // Reference: the same updates applied one edge at a time.
  cpu::DynamicBC sequential(g);
  for (const dyn::EdgeUpdate& e : batch.edges) {
    const bool changed =
        e.insert ? sequential.insert_edge(e.u, e.v) : sequential.remove_edge(e.u, e.v);
    ASSERT_TRUE(changed);  // mixed_batch only emits effective updates
  }

  dyn::IncrementalBC engine(g, inc_cfg(2));
  const dyn::BatchStats stats = engine.apply(batch);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.applied_updates, batch.size());
  EXPECT_EQ(stats.noop_updates, 0u);
  EXPECT_EQ(engine.graph().num_undirected_edges(),
            sequential.graph().num_undirected_edges());

  expect_scores_near(engine.scores(), sequential.scores());
  expect_scores_near(engine.scores(), cpu::brandes(engine.graph()).bc);
}

TEST(IncrementalBC, RepeatedBatchesTrackFromScratchRecompute) {
  CSRGraph g = graph::gen::small_world({.num_vertices = 50, .k = 3, .seed = 9});
  dyn::IncrementalBC engine(g, inc_cfg(2, /*churn_threshold=*/1.0));
  for (std::uint64_t round = 1; round <= 3; ++round) {
    const dyn::UpdateBatch batch =
        mixed_batch(engine.graph(), 3, 2, /*seed=*/100 + round);
    const dyn::BatchStats stats = engine.apply(batch);
    EXPECT_EQ(stats.epoch, round);
    EXPECT_FALSE(stats.full_recompute);  // threshold 1.0 never falls back
    expect_scores_near(engine.scores(), cpu::brandes(engine.graph()).bc);
  }
  EXPECT_EQ(engine.totals().batches, 3u);
  EXPECT_EQ(engine.totals().applied_updates, 15u);
}

TEST(IncrementalBC, LevelTestPrunesUnaffectedSources) {
  // Star + chord (the cpu::DynamicBC pruning scenario, batched): only the
  // chord endpoints are affected; the hub and other leaves are skipped.
  const CSRGraph g = graph::build_csr(
      5, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  // 2 of 5 sources are affected (40%) — above the default churn
  // threshold on a graph this tiny, so disable the fallback to observe
  // the pruning itself.
  dyn::IncrementalBC engine(g, inc_cfg(0, /*churn_threshold=*/1.0));
  const dyn::BatchStats stats = engine.apply(dyn::UpdateBatch{}.insert(1, 2));
  EXPECT_EQ(stats.affected_sources, 2u);
  EXPECT_EQ(stats.sources_recomputed, 2u);
  EXPECT_EQ(stats.sources_skipped, 3u);
  EXPECT_FALSE(stats.full_recompute);
  expect_scores_near(engine.scores(), cpu::brandes(engine.graph()).bc);
}

TEST(IncrementalBC, ChurnThresholdTriggersFullRecompute) {
  const CSRGraph g = graph::gen::small_world({.num_vertices = 40, .k = 2, .seed = 7});
  // threshold 0: any nonzero affected set falls back to a full recompute.
  dyn::IncrementalBC engine(g, inc_cfg(0, /*churn_threshold=*/0.0));
  const dyn::UpdateBatch batch = mixed_batch(g, 2, 1, 21);
  const dyn::BatchStats stats = engine.apply(batch);
  EXPECT_TRUE(stats.full_recompute);
  EXPECT_EQ(stats.sources_recomputed, 40u);
  EXPECT_EQ(stats.sources_skipped, 0u);
  EXPECT_EQ(engine.totals().full_recomputes, 1u);
  expect_scores_near(engine.scores(), cpu::brandes(engine.graph()).bc);
}

TEST(IncrementalBC, CancelLeavesScoresAndEpochUntouched) {
  const CSRGraph g = graph::gen::small_world({.num_vertices = 40, .k = 2, .seed = 13});
  util::CancelSource source;
  dyn::IncrementalConfig cfg;
  cfg.cancel = source.token();
  dyn::IncrementalBC engine(g, cfg);  // builds epoch-0 scores uncancelled
  const std::vector<double> before = engine.scores();

  source.cancel();
  EXPECT_THROW(engine.apply(mixed_batch(g, 3, 1, 31)), util::Cancelled);
  EXPECT_EQ(engine.epoch().id, 0u);
  EXPECT_EQ(engine.scores(), before);  // bitwise untouched
}

TEST(IncrementalBC, InvalidConfigThrows) {
  const CSRGraph g = graph::build_csr(3, std::vector<Edge>{{0, 1}, {1, 2}});
  EXPECT_THROW(dyn::IncrementalBC(g, inc_cfg(0, /*churn_threshold=*/1.5)),
               std::invalid_argument);
  dyn::IncrementalConfig no_stripes;
  no_stripes.reduce_stripes = 0;
  EXPECT_THROW(dyn::IncrementalBC(g, no_stripes), std::invalid_argument);
  EXPECT_THROW(
      dyn::IncrementalBC(graph::build_csr(3, std::vector<Edge>{{0, 1}},
                                          {.symmetrize = false})),
      std::invalid_argument);
}

TEST(IncrementalBC, BitwiseDeterminismAcrossThreadCounts) {
  // Same graph, same batch, different thread counts: epoch-0 scores and
  // post-batch scores must be bit-identical — the fixed-stripe reduction
  // order is the contract, not a tolerance.
  const CSRGraph g = graph::gen::small_world({.num_vertices = 120, .k = 3, .seed = 17});
  const dyn::UpdateBatch batch = mixed_batch(g, 4, 2, 41);

  std::vector<std::vector<double>> initial, updated;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    dyn::IncrementalBC engine(g, inc_cfg(threads));
    initial.push_back(engine.scores());
    engine.apply(batch);
    updated.push_back(engine.scores());
  }
  for (std::size_t i = 1; i < initial.size(); ++i) {
    ASSERT_EQ(initial[0].size(), initial[i].size());
    EXPECT_EQ(0, std::memcmp(initial[0].data(), initial[i].data(),
                             initial[0].size() * sizeof(double)))
        << "epoch-0 scores differ at thread count " << i;
    EXPECT_EQ(0, std::memcmp(updated[0].data(), updated[i].data(),
                             updated[0].size() * sizeof(double)))
        << "post-batch scores differ at thread count " << i;
  }

  // The churn fallback reuses the same striped path, so it inherits the
  // guarantee too.
  std::vector<std::vector<double>> fallback;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    dyn::IncrementalBC engine(g, inc_cfg(threads, /*churn_threshold=*/0.0));
    engine.apply(batch);
    fallback.push_back(engine.scores());
  }
  EXPECT_EQ(0, std::memcmp(fallback[0].data(), fallback[1].data(),
                           fallback[0].size() * sizeof(double)));
}

// exact_scores and refresh_scores run each stripe's sources over one
// reused cpu::SingleSource per graph. The reference below is the
// per-source path, a fresh workspace per call, striped and folded the
// same way; the bits must match.
TEST(IncrementalBC, WorkspaceReuseKeepsPerSourceBits) {
  constexpr std::size_t kStripes = 8;
  const auto striped = [&](std::size_t count, const auto& add_source) {
    std::vector<std::vector<double>> partials;
    const std::size_t per = count / kStripes, extra = count % kStripes;
    std::size_t begin = 0;
    for (std::size_t c = 0; c < kStripes && begin < count; ++c) {
      const std::size_t end = begin + per + (c < extra ? 1 : 0);
      if (end > begin) {
        partials.emplace_back();
        for (std::size_t i = begin; i < end; ++i) add_source(partials.back(), i);
      }
      begin = end;
    }
    return partials;
  };

  for (const char* family : {"kron", "rgg"}) {
    const auto g = std::make_shared<const CSRGraph>(
        graph::gen::family_by_name(family).make(9, 5));
    const VertexId n = g->num_vertices();
    util::ThreadPool pool(3);

    std::vector<double> want(n, 0.0);
    for (const auto& partial : striped(n, [&](std::vector<double>& p, std::size_t s) {
           if (p.empty()) p.assign(n, 0.0);
           cpu::brandes_single_source(*g, static_cast<VertexId>(s), p);
         })) {
      for (VertexId v = 0; v < n; ++v) want[v] += partial[v];
    }
    const std::vector<double> exact = dyn::exact_scores(*g, pool, kStripes);
    ASSERT_EQ(exact.size(), want.size());
    EXPECT_EQ(0, std::memcmp(exact.data(), want.data(), n * sizeof(double))) << family;

    // refresh_scores on its incremental path (churn threshold 1). The
    // affected sources follow its level test on both snapshots.
    const dyn::VersionedGraph versioned(g);
    const dyn::CommitResult staged = versioned.stage(mixed_batch(*g, 3, 2, 23));
    ASSERT_FALSE(staged.applied.empty());
    const CSRGraph& before = *staged.before.graph;
    const CSRGraph& after = *staged.after.graph;
    std::vector<bool> hit(n, false);
    for (const dyn::EdgeUpdate& e : staged.applied) {
      for (const CSRGraph* snap : {&before, &after}) {
        const auto du = graph::bfs(*snap, e.u).distance;
        const auto dv = graph::bfs(*snap, e.v).distance;
        for (VertexId s = 0; s < n; ++s) hit[s] = hit[s] || du[s] != dv[s];
      }
    }
    std::vector<VertexId> affected;
    for (VertexId s = 0; s < n; ++s) {
      if (hit[s]) affected.push_back(s);
    }
    std::vector<double> want_refreshed = exact;
    for (const auto& partial :
         striped(affected.size(), [&](std::vector<double>& p, std::size_t i) {
           if (p.empty()) p.assign(n, 0.0);
           const VertexId s = affected[i];
           const auto old_delta = cpu::single_source_dependencies(before, s);
           const auto new_delta = cpu::single_source_dependencies(after, s);
           for (VertexId w = 0; w < n; ++w) {
             if (w != s) p[w] += new_delta[w] - old_delta[w];
           }
         })) {
      for (VertexId v = 0; v < n; ++v) want_refreshed[v] += partial[v];
    }
    dyn::IncrementalConfig cfg = inc_cfg(3, /*churn_threshold=*/1.0);
    cfg.reduce_stripes = kStripes;
    std::vector<double> refreshed = exact;
    const dyn::BatchStats stats =
        dyn::refresh_scores(before, after, staged.applied, refreshed, pool, cfg);
    EXPECT_FALSE(stats.full_recompute);
    EXPECT_EQ(stats.affected_sources, affected.size()) << family;
    EXPECT_EQ(0, std::memcmp(refreshed.data(), want_refreshed.data(), n * sizeof(double)))
        << family;
  }
}

// ------------------------------------------------------------- service

core::Options exact_cpu_options() {
  core::Options opt;
  opt.strategy = core::Strategy::CpuSerial;
  return opt;
}

TEST(ServiceMutation, MutationInvalidatesOldCacheEntries) {
  service::BcService svc(one_worker());
  const CSRGraph g = graph::gen::small_world(
      {.num_vertices = 48, .k = 2, .rewire_p = 0.0, .seed = 23});
  svc.load_graph("g", g);

  const service::Response first = svc.query({.graph_id = "g", .options = exact_cpu_options()});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.from_cache);
  const service::Response hit = svc.query({.graph_id = "g", .options = exact_cpu_options()});
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.from_cache);

  const service::MutationResult mr =
      svc.mutate_graph("g", dyn::UpdateBatch{}.insert(0, 24));
  EXPECT_EQ(mr.epoch, 1u);
  EXPECT_EQ(mr.applied, 1u);
  EXPECT_NE(mr.fingerprint_before, mr.fingerprint_after);
  EXPECT_EQ(mr.cache_invalidated, 1u);
  EXPECT_EQ(svc.graph_epoch("g"), 1u);

  // Post-mutation query recomputes on the new epoch — never the old scores.
  const service::Response after = svc.query({.graph_id = "g", .options = exact_cpu_options()});
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.from_cache);
  const auto fresh = cpu::brandes(*svc.graph("g")).bc;
  expect_scores_near(after.result->scores, fresh);

  const service::MetricsSnapshot m = svc.metrics();
  EXPECT_EQ(m.mutations, 1u);
  EXPECT_EQ(m.mutation_updates, 1u);
  EXPECT_EQ(m.refresh_invalidated, 1u);
  EXPECT_EQ(m.refresh_patched, 0u);
}

TEST(ServiceMutation, RefresherPatchesExactEntriesAcrossEpochs) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.refresh.enabled = true;
  cfg.refresh.budget_entries = 4;
  service::BcService svc(cfg);
  const CSRGraph g = graph::gen::small_world(
      {.num_vertices = 48, .k = 2, .rewire_p = 0.0, .seed = 29});
  svc.load_graph("g", g);

  ASSERT_TRUE(svc.query({.graph_id = "g", .options = exact_cpu_options()}).ok());

  const service::MutationResult mr =
      svc.mutate_graph("g", dyn::UpdateBatch{}.insert(1, 25).remove(0, 1));
  EXPECT_EQ(mr.cache_refresh_queued, 1u);
  EXPECT_EQ(mr.cache_invalidated, 0u);
  svc.drain_refreshes();

  // The patched entry now answers queries against the NEW epoch from the
  // cache, with scores matching a from-scratch run on the mutated graph.
  const service::Response patched =
      svc.query({.graph_id = "g", .options = exact_cpu_options()});
  ASSERT_TRUE(patched.ok());
  EXPECT_TRUE(patched.from_cache);
  expect_scores_near(patched.result->scores, cpu::brandes(*svc.graph("g")).bc);

  const service::MetricsSnapshot m = svc.metrics();
  EXPECT_EQ(m.refresh_patched, 1u);
  EXPECT_EQ(m.mutations, 1u);
  EXPECT_GT(m.affected_fraction_max, 0.0);
  EXPECT_LE(m.affected_fraction_max, 1.0);
}

TEST(ServiceMutation, NonRefreshableEntriesAreInvalidatedNotPatched) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.refresh.enabled = true;
  service::BcService svc(cfg);
  svc.load_graph("g", graph::gen::small_world(
                          {.num_vertices = 40, .k = 2, .rewire_p = 0.0, .seed = 31}));

  // A normalized result is cached but NOT refreshable (scores rescaled).
  core::Options normalized = exact_cpu_options();
  normalized.normalize = true;
  ASSERT_TRUE(svc.query({.graph_id = "g", .options = normalized}).ok());

  const service::MutationResult mr =
      svc.mutate_graph("g", dyn::UpdateBatch{}.insert(0, 20));
  EXPECT_EQ(mr.cache_refresh_queued, 1u);
  svc.drain_refreshes();

  const service::MetricsSnapshot m = svc.metrics();
  EXPECT_EQ(m.refresh_patched, 0u);
  EXPECT_EQ(m.refresh_invalidated, 1u);

  // And the recomputed answer on the new epoch is correct.
  const service::Response after = svc.query({.graph_id = "g", .options = normalized});
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.from_cache);
}

TEST(ServiceMutation, InFlightQueriesKeepTheirSnapshot) {
  // A query submitted before a mutation computes on the old epoch even if
  // the mutation commits first — snapshot isolation end to end. We can't
  // force that interleaving deterministically from outside, so pin it via
  // the compute hook: the mutation happens while compute is in progress.
  service::ServiceConfig cfg;
  cfg.workers = 1;
  std::atomic<bool> mutate_now{false};
  std::atomic<bool> mutated{false};
  cfg.compute_fn = [&](const CSRGraph& g, const core::Options& o) {
    mutate_now.store(true);
    while (!mutated.load()) std::this_thread::yield();
    return core::compute(g, o);
  };
  service::BcService svc(cfg);
  const CSRGraph g = graph::gen::small_world(
      {.num_vertices = 32, .k = 2, .rewire_p = 0.0, .seed = 37});
  svc.load_graph("g", g);
  const auto old_scores = cpu::brandes(g).bc;

  const service::Ticket t = svc.submit({.graph_id = "g", .options = exact_cpu_options()});
  while (!mutate_now.load()) std::this_thread::yield();
  svc.mutate_graph("g", dyn::UpdateBatch{}.insert(0, 16));
  mutated.store(true);

  const service::Response r = svc.wait(t);
  ASSERT_TRUE(r.ok());
  expect_scores_near(r.result->scores, old_scores);  // old-epoch compute

  // But a FRESH query sees the new epoch, not the stale cached entry:
  // the old result was keyed by the old fingerprint.
  const service::Response fresh = svc.query({.graph_id = "g", .options = exact_cpu_options()});
  ASSERT_TRUE(fresh.ok());
  expect_scores_near(fresh.result->scores, cpu::brandes(*svc.graph("g")).bc);
}

TEST(ServiceMutation, RejectsUnknownAndDirectedGraphs) {
  service::BcService svc(one_worker());
  EXPECT_THROW(svc.mutate_graph("nope", dyn::UpdateBatch{}.insert(0, 1)),
               std::invalid_argument);

  svc.load_graph("directed", graph::build_csr(3, std::vector<Edge>{{0, 1}},
                                              {.symmetrize = false}));
  EXPECT_THROW(svc.mutate_graph("directed", dyn::UpdateBatch{}.insert(1, 2)),
               std::invalid_argument);

  svc.load_graph("g", graph::build_csr(3, std::vector<Edge>{{0, 1}}));
  EXPECT_THROW(svc.mutate_graph("g", dyn::UpdateBatch{}.insert(0, 9)),
               std::out_of_range);
  EXPECT_EQ(svc.graph_epoch("g"), 0u);

  svc.stop();
  EXPECT_THROW(svc.mutate_graph("g", dyn::UpdateBatch{}.insert(1, 2)),
               std::runtime_error);
}

}  // namespace
