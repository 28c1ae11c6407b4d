// Contract tests for the bump arena behind the per-round data path
// (DESIGN.md §9 "Memory model"): bump/LIFO-rollback semantics, geometric
// slab growth, and the two properties the simulator stakes on it —
//
//   * zero steady-state allocations: once the round buffers hit their
//     high-water capacity, further rounds perform NO allocate() calls
//     (Simulator::arena_stats().block_requests goes flat), at width 1 and
//     at width 8;
//   * error paths never advance an arena cursor: a throwing stage_send /
//     skip_rounds leaves the allocation counters (and all staged state)
//     exactly as they were — the staging mirror of the existing
//     negative-validation tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "congest/arena.hpp"
#include "congest/simulator.hpp"
#include "congest/vertex_program.hpp"
#include "gen/basic.hpp"
#include "gen/planar.hpp"

namespace mns {
namespace {

using congest::Arena;
using congest::ArenaAllocator;
using congest::ArenaVector;
using congest::Message;
using congest::Simulator;

TEST(ArenaContract, BumpAllocationAndStats) {
  Arena arena;
  EXPECT_EQ(arena.stats().block_requests, 0u);
  EXPECT_EQ(arena.stats().slabs, 0u);  // idle arenas cost nothing
  void* a = arena.allocate(100, 8);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(arena.stats().block_requests, 1u);
  EXPECT_EQ(arena.stats().slabs, 1u);
  // Within-slab allocations bump the cursor, not the slab count.
  void* b = arena.allocate(100, 8);
  EXPECT_EQ(arena.stats().slabs, 1u);
  EXPECT_GE(static_cast<std::byte*>(b), static_cast<std::byte*>(a) + 100);
  // Alignment honored.
  void* c = arena.allocate(1, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
}

TEST(ArenaContract, LifoRollbackRecyclesTopBlock) {
  Arena arena;
  (void)arena.allocate(64, 8);
  void* top = arena.allocate(64, 8);
  arena.deallocate(top, 64);  // top of the slab: cursor rolls back
  void* again = arena.allocate(64, 8);
  EXPECT_EQ(again, top);  // the block was genuinely reclaimed
  // Non-LIFO deallocation is a no-op (retained until destruction).
  void* x = arena.allocate(32, 8);
  void* y = arena.allocate(32, 8);
  arena.deallocate(x, 32);  // not the top — must NOT free y's storage
  void* z = arena.allocate(32, 8);
  EXPECT_NE(z, x);
  EXPECT_GT(static_cast<std::byte*>(z), static_cast<std::byte*>(y));
}

TEST(ArenaContract, SlabsGrowGeometrically) {
  Arena arena;
  // Force several slabs; reservation must stay within a small constant
  // factor of what was asked for (geometric growth, no per-block slabs).
  std::size_t asked = 0;
  for (int i = 0; i < 200; ++i) {
    (void)arena.allocate(1 << 14, 8);
    asked += 1 << 14;
  }
  EXPECT_LT(arena.stats().slabs, 12u);  // ~log2(total/kMinSlab) slabs
  EXPECT_LT(arena.stats().bytes_reserved, 4 * asked + (1 << 20));
}

TEST(ArenaContract, ArenaVectorGrowthReusesViaLifoRollback) {
  // The vector-grow pattern (allocate bigger, copy, deallocate old) is the
  // warm-up workload the LIFO rollback exists for: repeated push_back growth
  // must not leave more than the final capacity plus the geometric ladder
  // behind.
  Arena arena;
  ArenaVector<std::uint64_t> v{ArenaAllocator<std::uint64_t>(&arena)};
  for (std::uint64_t i = 0; i < 100000; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100000u);
  for (std::uint64_t i = 0; i < 100000; ++i)
    ASSERT_EQ(v[static_cast<std::size_t>(i)], i);
  EXPECT_LT(arena.stats().bytes_reserved, 8 * 100000 * 8);
}

/// Ping-pong traffic dense enough to keep every per-round buffer warm:
/// every vertex of a cycle sends to both neighbours each round.
void run_dense_rounds(const Graph& g, Simulator& sim, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      for (EdgeId e : g.incident_edges(v)) sim.send(v, e, Message{0, 0, v});
    sim.finish_round();
  }
}

TEST(ArenaContract, ZeroSteadyStateAllocationsSequential) {
  Graph g = gen::cycle(512);
  Simulator sim(g);
  run_dense_rounds(g, sim, 4);  // warm-up: buffers reach high water
  const Arena::Stats warm = sim.arena_stats();
  EXPECT_GT(warm.block_requests, 0u);
  run_dense_rounds(g, sim, 50);
  EXPECT_EQ(sim.arena_stats(), warm)
      << "steady-state rounds performed arena allocations";
}

/// The same min-label flooding shape the parity tests use, trimmed to what
/// the allocation test needs: full-frontier staged traffic at width 8.
struct FloodProgram {
  const Graph* g;
  std::vector<std::int64_t> label;
  congest::FrontierTracker tracker;

  FloodProgram(const Graph& graph, Simulator& sim)
      : g(&graph),
        label(static_cast<std::size_t>(graph.num_vertices())),
        tracker(sim.num_shards(), graph.num_vertices()) {
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      label[static_cast<std::size_t>(v)] =
          (static_cast<std::int64_t>(v) * 2654435761LL) % 100003;
      tracker.seed(v);
    }
  }
  [[nodiscard]] std::span<const VertexId> frontier() const {
    return tracker.frontier();
  }
  void send(VertexId v, congest::VertexSender& out) {
    for (EdgeId e : g->incident_edges(v))
      out.send(e, Message{0, 0, label[static_cast<std::size_t>(v)]});
  }
  void receive(VertexId v, congest::Inbox inbox, int shard) {
    for (const congest::Delivery& d : inbox)
      if (d.msg.value < label[static_cast<std::size_t>(v)]) {
        label[static_cast<std::size_t>(v)] = d.msg.value;
        tracker.wake_from_receive(v, shard);
      }
  }
  void end_round() { tracker.end_round(); }
};

TEST(ArenaContract, ZeroSteadyStateAllocationsAtWidth8) {
  // The ISSUE's tentpole criterion verbatim: zero steady-state allocations
  // at width >= 8. Run the engine's staged path (frontier > kParallelGrain,
  // so all 8 shards really stage) until warm, then demand flat counters.
  Graph g = gen::grid(40, 40).graph();
  Simulator sim(g);
  sim.set_threads(8);
  ASSERT_EQ(sim.num_shards(), 8);

  auto warm_run = [&] {
    FloodProgram prog(g, sim);
    congest::run_vertex_program(sim, prog);
  };
  warm_run();  // warm-up: arenas reach their high-water marks
  warm_run();  // (two passes: the first may end before every buffer peaked)
  const Arena::Stats warm = sim.arena_stats();
  EXPECT_GT(warm.block_requests, 0u);
  for (int rep = 0; rep < 3; ++rep) warm_run();
  EXPECT_EQ(sim.arena_stats(), warm)
      << "width-8 steady-state rounds performed arena allocations";
}

TEST(ArenaContract, ThrowingStageSendLeavesArenaUntouched) {
  // Mirror of StageSendValidatesEagerlyWhereItCan, at the arena layer: on a
  // FRESH simulator the first real staging write must allocate, so a
  // throwing call that left the counters at zero provably wrote nothing
  // (validation precedes any buffer write — the satellite fix).
  Graph g = gen::path(3);
  Simulator sim(g);
  sim.set_threads(2);
  const Arena::Stats before = sim.arena_stats();
  EXPECT_THROW(sim.stage_send(0, 2, g.find_edge(0, 1), Message{}),
               std::invalid_argument);  // 2 is not on edge (0,1)
  EXPECT_THROW(sim.stage_send(5, 0, g.find_edge(0, 1), Message{}),
               std::out_of_range);  // shard out of range
  EXPECT_THROW(sim.stage_send(-1, 0, g.find_edge(0, 1), Message{}),
               std::out_of_range);
  EXPECT_EQ(sim.arena_stats(), before)
      << "a throwing stage_send advanced an arena cursor";
  // A valid staged send after the failures lands alone and intact.
  sim.stage_send(0, 0, g.find_edge(0, 1), Message{0, 0, 42});
  sim.finish_round();
  EXPECT_EQ(sim.messages_sent(), 1);
  ASSERT_EQ(sim.inbox(1).size(), 1u);
  EXPECT_EQ(sim.inbox(1)[0].msg.value, 42);
}

TEST(ArenaContract, ThrowingSkipRoundsLeavesArenaAndStateUntouched) {
  Graph g = gen::path(2);
  Simulator sim(g);
  sim.send(0, 0, Message{0, 0, 5});  // pending state that must survive
  const Arena::Stats before = sim.arena_stats();
  EXPECT_THROW(sim.skip_rounds(-1), std::invalid_argument);
  EXPECT_EQ(sim.arena_stats(), before);
  EXPECT_EQ(sim.rounds(), 0);
  sim.finish_round();  // the pending send was not disturbed
  EXPECT_EQ(sim.rounds(), 1);
  ASSERT_EQ(sim.inbox(1).size(), 1u);
  EXPECT_EQ(sim.inbox(1)[0].msg.value, 5);
}

}  // namespace
}  // namespace mns
