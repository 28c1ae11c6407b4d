// Property suite for Theorem 1's mechanism: measured aggregation rounds are
// controlled by shortcut quality, and degrade gracefully toward the isolated
// part diameter without shortcuts. All bounds here are deliberately loose
// (constant-factor slack) — they pin the *shape*, which is what the theorem
// claims. The golden-traffic cases at the end pin the exact schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>

#include "congest/aggregation.hpp"
#include "congest/simulator.hpp"
#include "core/shortcut_engine.hpp"
#include "gen/apex.hpp"
#include "gen/basic.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/planar.hpp"
#include "graph/algorithms.hpp"
#include "io/fnv.hpp"

namespace mns {
namespace {

/// Mixes raw object bytes (the golden digests were taken on x86-64).
void mix_raw(io::Fnv64& h, const void* data, std::size_t bytes) {
  h.mix_bytes({static_cast<const std::uint8_t*>(data), bytes});
}

/// Folds each finished round's inbox bytes (receivers in delivery order, raw
/// slots and payloads) into one FNV-1a traffic digest.
struct TrafficDigest {
  io::Fnv64 traffic;
  long long rounds = 0;
  void after_round(const congest::Simulator& sim) {
    io::Fnv64 round;
    for (VertexId v : sim.delivered_to()) {
      mix_raw(round, &v, sizeof(v));
      const congest::Inbox in = sim.inbox(v);
      const std::span<const std::uint32_t> slots = in.slots();
      const std::span<const congest::Message> payloads = in.payloads();
      mix_raw(round, slots.data(), slots.size_bytes());
      mix_raw(round, payloads.data(), payloads.size_bytes());
    }
    traffic.mix_u64(round.value());
    ++rounds;
  }
};

TrafficDigest* g_traffic = nullptr;

}  // namespace
}  // namespace mns

// aggregate_min drives its rounds inside the library, so the golden-traffic
// tests watch them at the one place every round passes: this target links
// with -Wl,--wrap=<mangled Simulator::finish_round> (see CMakeLists.txt), so
// the library's calls land here, run the real turnover, then show the
// installed digest the inboxes it produced. No digest, no effect.
extern "C" {
void __real__ZN3mns7congest9Simulator12finish_roundEv(
    mns::congest::Simulator* sim);
void __wrap__ZN3mns7congest9Simulator12finish_roundEv(
    mns::congest::Simulator* sim) {
  __real__ZN3mns7congest9Simulator12finish_roundEv(sim);
  if (mns::g_traffic != nullptr) mns::g_traffic->after_round(*sim);
}
}

namespace mns {
namespace {

using congest::AggValue;

std::vector<AggValue> hash_values(VertexId n) {
  std::vector<AggValue> init(n);
  for (VertexId v = 0; v < n; ++v)
    init[v] = {static_cast<Weight>((v * 2654435761u) % 1000003), v};
  return init;
}

long long measured_rounds(const Graph& g, const Partition& parts,
                          const Shortcut& sc) {
  congest::PartwiseAggregator agg(g, parts, sc);
  congest::Simulator sim(g);
  (void)agg.aggregate_min(sim, hash_values(g.num_vertices()));
  return sim.rounds();
}

TEST(AggregationProperty, NoShortcutRoundsTrackPartDiameter) {
  // Ring sector of length L floods in ~L/2..L rounds.
  for (int sectors : {2, 4, 8}) {
    const VertexId n = 962;
    Graph g = gen::wheel(n);
    Partition parts = ring_sectors(n, 1, n - 1, sectors);
    Shortcut none;
    none.edges_of_part.resize(parts.num_parts());
    long long rounds = measured_rounds(g, parts, none);
    int len = (n - 1) / sectors;
    EXPECT_GE(rounds, len / 2 - 2) << sectors;
    EXPECT_LE(rounds, 2 * len + 4) << sectors;
  }
}

TEST(AggregationProperty, RoundsBoundedByQualityTimesConstant) {
  // With a tree-restricted shortcut, rounds <= C * (q + d_T): each block is
  // a tree fragment of depth <= d_T, congestion delays are <= c per edge.
  struct Case {
    Graph g;
    Partition parts;
  };
  std::vector<Case> cases;
  {
    const VertexId n = 402;
    cases.push_back({gen::wheel(n), ring_sectors(n, 1, n - 1, 4)});
  }
  {
    const int s = 24;
    cases.push_back(
        {gen::grid(s, s).graph(), grid_serpentines(s, s, 4)});
  }
  {
    Rng rng(3);
    Graph g = gen::random_maximal_planar(300, rng).graph();
    cases.push_back({g, voronoi_partition(g, 10, rng)});
  }
  for (auto& cs : cases) {
    Rng rng(1);
    VertexId c = approximate_center(cs.g, rng);
    RootedTree t = RootedTree::from_bfs(bfs(cs.g, c), c);
    for (const StructuralCertificate& cert :
         {greedy_certificate(), steiner_certificate()}) {
      BuildResult r = ShortcutEngine::global().build(cs.g, t, cs.parts, cert);
      const ShortcutMetrics& m = r.metrics;
      long long rounds = measured_rounds(cs.g, cs.parts, r.shortcut);
      EXPECT_LE(rounds, 6 * (m.quality + m.tree_diameter) + 20)
          << "n=" << cs.g.num_vertices();
    }
  }
}

TEST(AggregationProperty, ShortcutNeverBreaksCorrectnessUnderHighCongestion) {
  // Deliberately terrible shortcut: every part gets the whole tree. The
  // answer must still be right; only rounds inflate.
  const VertexId n = 202;
  Graph g = gen::wheel(n);
  RootedTree t = RootedTree::from_bfs(bfs(g, 0), 0);
  Partition parts = ring_sectors(n, 1, n - 1, 6);
  Shortcut bloated;
  bloated.edges_of_part.resize(parts.num_parts());
  for (PartId p = 0; p < parts.num_parts(); ++p)
    for (VertexId v = 1; v < n; ++v)
      bloated.edges_of_part[p].push_back(t.parent_edge(v));
  congest::PartwiseAggregator agg(g, parts, bloated);
  congest::Simulator sim(g);
  auto init = hash_values(n);
  auto res = agg.aggregate_min(sim, init);
  for (PartId p = 0; p < parts.num_parts(); ++p) {
    AggValue expect{std::numeric_limits<std::int64_t>::max(),
                    std::numeric_limits<std::int32_t>::max()};
    for (VertexId v : parts.members(p)) expect = std::min(expect, init[v]);
    EXPECT_EQ(res.min_of_part[p], expect);
  }
}

TEST(AggregationProperty, SingletonPartsFinishInstantly) {
  Graph g = gen::grid(10, 10).graph();
  std::vector<PartId> part_of(g.num_vertices(), kNoPart);
  for (VertexId v = 0; v < 20; ++v) part_of[v] = v;  // 20 singletons
  Partition parts(part_of);
  Shortcut sc;
  sc.edges_of_part.resize(parts.num_parts());
  long long rounds = measured_rounds(g, parts, sc);
  EXPECT_EQ(rounds, 0);
}

TEST(AggregationProperty, UnassignedVerticesDoNotParticipate) {
  // Vertices outside all parts must not affect results.
  Graph g = gen::path(10);
  Partition parts = Partition::from_parts(10, {{0, 1, 2}});
  Shortcut sc;
  sc.edges_of_part.resize(1);
  congest::PartwiseAggregator agg(g, parts, sc);
  congest::Simulator sim(g);
  std::vector<AggValue> init(10, AggValue{-999, 0});  // junk everywhere
  init[0] = {5, 0};
  init[1] = {4, 1};
  init[2] = {6, 2};
  auto res = agg.aggregate_min(sim, init);
  EXPECT_EQ(res.min_of_part[0].value, 4);
  EXPECT_EQ(res.min_of_part[0].aux, 1);
}

class QualityMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(QualityMonotonicity, BetterQualityNeverMuchSlowerOnWheel) {
  // On the wheel: quality-3 shortcuts finish in O(1) rounds while the
  // no-shortcut baseline needs Theta(n / sectors); the ordering must hold
  // across sizes.
  const VertexId n = 200 * GetParam() + 2;
  Graph g = gen::wheel(n);
  RootedTree t = RootedTree::from_bfs(bfs(g, 0), 0);
  Partition parts = ring_sectors(n, 1, n - 1, 4);
  Shortcut good =
      ShortcutEngine::global().build(g, t, parts, greedy_certificate())
          .shortcut;
  Shortcut none;
  none.edges_of_part.resize(parts.num_parts());
  long long fast = measured_rounds(g, parts, good);
  long long slow = measured_rounds(g, parts, none);
  EXPECT_LT(4 * fast, slow) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, QualityMonotonicity,
                         ::testing::Values(1, 2, 4, 8));

// ---- 32-bit packed-index guard ---------------------------------------------
// The aggregator's offsets, slots and table entries are uint32, so the guard
// must accept 2^32 - 2 and reject from 2^32 - 1 (the uint32 maximum) up, for
// both the dirty-bit total and the participation count. Tested on the guard
// itself: an instance that large would need tens of GiB.

TEST(AggregationGuard, PackedIndexBoundary) {
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  EXPECT_NO_THROW(congest::check_packed_index_range(kMax - 1, kMax - 1));
  EXPECT_NO_THROW(congest::check_packed_index_range(0, 0));
  for (std::size_t bad : {kMax, kMax + 1}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(congest::check_packed_index_range(bad, 0),
                 InvariantViolation);
    EXPECT_THROW(congest::check_packed_index_range(0, bad),
                 InvariantViolation);
    try {
      congest::check_packed_index_range(bad, bad);
      ADD_FAILURE() << "no throw";
    } catch (const InvariantViolation& e) {
      EXPECT_STREQ(e.what(),
                   "PartwiseAggregator: instance exceeds packed 32-bit slot "
                   "indexing");
    }
  }
}

// ---- Golden traffic --------------------------------------------------------
// aggregate_min's schedule — which part each directed slot sends in which
// round — is part of the simulated cost, so a host-side speedup must leave
// every round's inbox bytes unchanged. Each case pins its traffic digest,
// rounds, messages and the min_of_part digest to the values the
// binary-search implementation produced. The width-parity tests compare one
// implementation against itself; these compare against a recorded one.

struct Golden {
  long long rounds;
  long long messages;
  std::uint64_t traffic;
  std::uint64_t result;
};

void expect_golden(const Graph& g, const Partition& parts, const Shortcut& sc,
                   const Golden& want) {
  congest::PartwiseAggregator agg(g, parts, sc);
  congest::Simulator sim(g);
  TrafficDigest digest;
  g_traffic = &digest;
  const congest::AggregationResult res =
      agg.aggregate_min(sim, hash_values(g.num_vertices()));
  g_traffic = nullptr;
  io::Fnv64 result;
  for (const AggValue& m : res.min_of_part) {
    result.mix_i64(m.value);
    mix_raw(result, &m.aux, sizeof(m.aux));
  }
  EXPECT_EQ(digest.rounds, res.rounds);
  EXPECT_EQ(res.rounds, want.rounds);
  EXPECT_EQ(sim.messages_sent(), want.messages);
  EXPECT_EQ(digest.traffic.value(), want.traffic)
      << "0x" << std::hex << digest.traffic.value();
  EXPECT_EQ(result.value(), want.result) << "0x" << std::hex << result.value();
}

RootedTree bfs_tree(const Graph& g) {
  Rng rng(1);
  const VertexId c = approximate_center(g, rng);
  return RootedTree::from_bfs(bfs(g, c), c);
}

/// Runs one family twice: over the engine's shortcut for `cert`, and with no
/// shortcut (intra-part flooding).
void expect_family_golden(const Graph& g, const Partition& parts,
                          const StructuralCertificate& cert,
                          const Golden& with_shortcut,
                          const Golden& without) {
  const RootedTree t = bfs_tree(g);
  const Shortcut sc =
      ShortcutEngine::global().build(g, t, parts, cert).shortcut;
  {
    SCOPED_TRACE("engine shortcut");
    expect_golden(g, parts, sc, with_shortcut);
  }
  Shortcut none;
  none.edges_of_part.resize(static_cast<std::size_t>(parts.num_parts()));
  SCOPED_TRACE("no shortcut");
  expect_golden(g, parts, none, without);
}

TEST(AggregationGolden, PlanarFamily) {
  Rng rng(5);
  const Graph g = gen::random_maximal_planar(400, rng).graph();
  const Partition parts = voronoi_partition(g, 12, rng);
  expect_family_golden(
      g, parts, greedy_certificate(),
      {10, 5191, 0x4e28b6c9c2eec147ULL, 0x1549454307dae72aULL},
      {5, 4552, 0xf209e417ec2fc509ULL, 0x1549454307dae72aULL});
}

TEST(AggregationGolden, TreewidthFamily) {
  Rng rng(7);
  gen::KTreeResult kt = gen::random_ktree(400, 3, rng);
  const Partition parts = voronoi_partition(kt.graph, 12, rng);
  expect_family_golden(
      kt.graph, parts, treewidth_certificate(kt.decomposition),
      {12, 7129, 0xe2df0ba26c0ae989ULL, 0xc61b23b9e6716ff1ULL},
      {5, 4596, 0xe6eb8826d043d4b3ULL, 0xc61b23b9e6716ff1ULL});
}

TEST(AggregationGolden, ApexFamily) {
  Rng rng(11);
  gen::ApexResult ar =
      gen::add_apices(gen::grid(20, 20).graph(), 2, 0.10, rng);
  const Partition parts = voronoi_partition(ar.graph, 12, rng);
  expect_family_golden(
      ar.graph, parts, apex_certificate(ar.apices),
      {14, 8087, 0x608a4f56d3fae724ULL, 0x7efe96aa246c56e0ULL},
      {10, 3913, 0x46c6afb9b92b1b03ULL, 0x7efe96aa246c56e0ULL});
}

TEST(AggregationGolden, CliqueSumFamily) {
  Rng rng(13);
  std::vector<gen::BagInput> bags;
  for (int b = 0; b < 6; ++b) {
    Graph cell = gen::triangulated_grid(6, 6).graph();
    std::vector<std::vector<VertexId>> glue =
        gen::default_glue_cliques(cell, 2);
    bags.push_back(gen::BagInput{std::move(cell), std::move(glue)});
  }
  gen::CliqueSumResult cs = gen::compose_clique_sum(bags, 2, 0.0, rng);
  const Partition parts = voronoi_partition(cs.graph, 12, rng);
  expect_family_golden(
      cs.graph, parts, cliquesum_certificate(cs.decomposition),
      {12, 3249, 0xc621dd011ea879eaULL, 0x0c0c4434098480eaULL},
      {8, 2429, 0xf9e9584d93a966e6ULL, 0x0c0c4434098480eaULL});
}

TEST(AggregationGolden, MultiWordDirtyMasks) {
  // 70 ring sectors that all share the hub's BFS tree: every spoke carries
  // 70 parts, so each of its directed slots owns a two-word dirty mask and
  // the round-robin cursor wraps across the word boundary.
  const VertexId n = 702;
  const Graph g = gen::wheel(n);
  const RootedTree t = RootedTree::from_bfs(bfs(g, 0), 0);
  const Partition parts = ring_sectors(n, 1, n - 1, 70);
  Shortcut shared;
  shared.edges_of_part.resize(static_cast<std::size_t>(parts.num_parts()));
  for (PartId p = 0; p < parts.num_parts(); ++p)
    for (VertexId v = 1; v < n; ++v)
      shared.edges_of_part[p].push_back(t.parent_edge(v));
  expect_golden(g, parts, shared,
                {72, 102499, 0xaf6dcbaf415b136cULL, 0xe4cae00a33c420b9ULL});
}

}  // namespace
}  // namespace mns
