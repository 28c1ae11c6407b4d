// Packed-wire parity (DESIGN.md §9): the 20-byte slot/payload wire format
// must be observationally identical to the retired 24-byte Delivery records.
// A retained reference decoder re-derives (from, edge) from the raw directed
// slot `2e + side` and the graph, independently of Inbox's own decoding; a
// min-label flooding program then drives multi-round traffic on all four
// certificate families (planar, treewidth, apex, clique-sum) at widths
// 1/2/4/8 and pins rounds, messages, and the per-round inbox BYTES (raw
// slots + payloads, in delivery order) bit-identical across widths — the
// determinism contract of DESIGN.md §7 expressed against the wire itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "congest/simulator.hpp"
#include "congest/vertex_program.hpp"
#include "gen/apex.hpp"
#include "gen/basic.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/planar.hpp"

namespace mns {
namespace {

using congest::Delivery;
using congest::Inbox;
using congest::Message;
using congest::Simulator;

/// The RETAINED REFERENCE DECODER: the seed semantics of a delivery record,
/// reconstructed from the packed directed slot alone. Kept deliberately
/// independent of Inbox::operator[] so the two implementations check each
/// other.
Delivery reference_decode(const Graph& g, std::uint32_t slot,
                          const Message& payload) {
  const EdgeId e = static_cast<EdgeId>(slot >> 1);
  const Edge& ed = g.edge(e);
  const VertexId sender = (slot & 1u) == 0 ? ed.u : ed.v;
  return Delivery{sender, e, payload};
}

/// FNV-1a over arbitrary bytes — the inbox digest primitive.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::int64_t mix_label(VertexId v) {
  std::uint64_t x = static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<std::int64_t>(x >> 1);  // nonnegative
}

/// Min-label flooding: every vertex starts on the frontier with a distinct
/// pseudo-random label and floods its current minimum to all neighbours;
/// improved vertices re-flood next round. Converges to the global minimum in
/// O(diameter) rounds, with an n-sized first frontier (so widths > 1 really
/// stage across shards) shrinking through the inline-grain path — both merge
/// paths are exercised in one run. end_round() digests the round's raw inbox
/// bytes and cross-checks Inbox against the reference decoder.
struct MinLabelFlood {
  const Graph* g;
  Simulator* sim;
  std::vector<std::int64_t> label;
  congest::FrontierTracker tracker;
  std::vector<std::uint64_t> round_digests;
  long long decode_mismatches = 0;

  MinLabelFlood(const Graph& graph, Simulator& s)
      : g(&graph),
        sim(&s),
        label(static_cast<std::size_t>(graph.num_vertices())),
        tracker(s.num_shards(), graph.num_vertices()) {
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      label[static_cast<std::size_t>(v)] = mix_label(v);
      tracker.seed(v);
    }
  }

  [[nodiscard]] std::span<const VertexId> frontier() const {
    return tracker.frontier();
  }
  void send(VertexId v, congest::VertexSender& out) {
    for (EdgeId e : g->incident_edges(v))
      out.send(e, Message{0, static_cast<std::int32_t>(v & 0x7fff),
                          label[static_cast<std::size_t>(v)]});
  }
  void receive(VertexId v, Inbox inbox, int shard) {
    for (const Delivery& d : inbox) {
      if (d.msg.value < label[static_cast<std::size_t>(v)]) {
        label[static_cast<std::size_t>(v)] = d.msg.value;
        tracker.wake_from_receive(v, shard);
      }
    }
  }
  void end_round() {
    // Digest the round that just finished: receivers in delivery order, each
    // inbox's raw slot and payload bytes verbatim.
    std::uint64_t h = 14695981039346656037ULL;
    for (VertexId v : sim->delivered_to()) {
      h = fnv1a(h, &v, sizeof(v));
      const Inbox in = sim->inbox(v);
      const std::span<const std::uint32_t> slots = in.slots();
      const std::span<const Message> payloads = in.payloads();
      h = fnv1a(h, slots.data(), slots.size_bytes());
      h = fnv1a(h, payloads.data(), payloads.size_bytes());
      // Reference-decoder cross-check, delivery for delivery.
      for (std::size_t i = 0; i < in.size(); ++i) {
        const Delivery got = in[i];
        const Delivery want = reference_decode(*g, slots[i], payloads[i]);
        if (got.from != want.from || got.edge != want.edge ||
            std::memcmp(&got.msg, &want.msg, sizeof(Message)) != 0)
          ++decode_mismatches;
        // The sender must be the far endpoint of the edge relative to v.
        const Edge& ed = g->edge(want.edge);
        if (want.from != (v == ed.u ? ed.v : ed.u)) ++decode_mismatches;
      }
    }
    round_digests.push_back(h);
    tracker.end_round();
  }
};

struct FloodTrace {
  long long rounds = 0;
  long long messages = 0;
  std::vector<std::uint64_t> digests;
  std::vector<std::int64_t> labels;
};

FloodTrace run_flood(const Graph& g, int width) {
  Simulator sim(g);
  sim.set_threads(width);
  MinLabelFlood prog(g, sim);
  congest::run_vertex_program(sim, prog);
  EXPECT_EQ(prog.decode_mismatches, 0)
      << "Inbox decoding disagrees with the reference decoder at width "
      << width;
  return FloodTrace{sim.rounds(), sim.messages_sent(),
                    std::move(prog.round_digests), std::move(prog.label)};
}

void expect_width_parity(const Graph& g, const char* family) {
  SCOPED_TRACE(family);
  ASSERT_GT(g.num_vertices(), static_cast<VertexId>(congest::kParallelGrain))
      << "instance too small to exercise the staged multi-shard path";
  const FloodTrace seq = run_flood(g, 1);
  // Converged: every vertex holds the global minimum (the graphs are
  // connected), so the traffic really flooded end to end.
  std::int64_t global_min = seq.labels[0];
  for (std::int64_t l : seq.labels) global_min = std::min(global_min, l);
  for (std::int64_t l : seq.labels) EXPECT_EQ(l, global_min);
  for (int width : {2, 4, 8}) {
    SCOPED_TRACE(width);
    const FloodTrace par = run_flood(g, width);
    EXPECT_EQ(par.rounds, seq.rounds);
    EXPECT_EQ(par.messages, seq.messages);
    ASSERT_EQ(par.digests.size(), seq.digests.size());
    for (std::size_t r = 0; r < seq.digests.size(); ++r)
      EXPECT_EQ(par.digests[r], seq.digests[r])
          << "inbox bytes diverged in round " << r;
    EXPECT_EQ(par.labels, seq.labels);
  }
}

TEST(WireParity, PackedSlotEncoding) {
  // The raw wire values, pinned: slot = 2e + side, side 0 = sent by
  // edge(e).u, payload verbatim.
  Graph g = gen::path(3);
  Simulator sim(g);
  const EdgeId e01 = g.find_edge(0, 1);
  const EdgeId e12 = g.find_edge(1, 2);
  sim.send(1, e01, Message{7, 8, 9});   // 1 is edge(e01).v -> side 1
  sim.send(1, e12, Message{4, 5, 6});   // 1 is edge(e12).u -> side 0
  sim.finish_round();
  const Inbox in0 = sim.inbox(0);
  ASSERT_EQ(in0.size(), 1u);
  EXPECT_EQ(in0.slots()[0], 2u * static_cast<std::uint32_t>(e01) + 1u);
  EXPECT_EQ(in0.payloads()[0].tag, 7);
  EXPECT_EQ(in0.payloads()[0].aux, 8);
  EXPECT_EQ(in0.payloads()[0].value, 9);
  const Inbox in2 = sim.inbox(2);
  ASSERT_EQ(in2.size(), 1u);
  EXPECT_EQ(in2.slots()[0], 2u * static_cast<std::uint32_t>(e12));
  EXPECT_EQ(in2.payloads()[0].value, 6);
  // Decoded view matches the reference decoder on both.
  for (const Inbox& in : {in0, in2}) {
    const Delivery want = reference_decode(g, in.slots()[0], in.payloads()[0]);
    EXPECT_EQ(in[0].from, want.from);
    EXPECT_EQ(in[0].edge, want.edge);
    EXPECT_EQ(in[0].msg.value, want.msg.value);
  }
}

TEST(WireParity, PlanarFamily) {
  expect_width_parity(gen::grid(32, 32).graph(), "planar grid 32x32");
}

TEST(WireParity, TreewidthFamily) {
  Rng rng(7);
  expect_width_parity(gen::random_ktree(700, 3, rng).graph, "3-tree n=700");
}

TEST(WireParity, ApexFamily) {
  Rng rng(11);
  gen::ApexResult ar = gen::add_apices(gen::grid(30, 30).graph(), 2, 0.10, rng);
  expect_width_parity(ar.graph, "apexed grid 30x30+2");
}

TEST(WireParity, CliqueSumFamily) {
  Rng rng(13);
  std::vector<gen::BagInput> bags;
  for (int b = 0; b < 6; ++b) {
    Graph cell = gen::grid(10, 10).graph();
    std::vector<std::vector<VertexId>> glue =
        gen::default_glue_cliques(cell, 2);
    bags.push_back(gen::BagInput{std::move(cell), std::move(glue)});
  }
  gen::CliqueSumResult r = gen::compose_clique_sum(bags, 2, 0.0, rng);
  expect_width_parity(r.graph, "clique-sum of 6 grid bags");
}

}  // namespace
}  // namespace mns
