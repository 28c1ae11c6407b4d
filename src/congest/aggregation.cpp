#include "congest/aggregation.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "congest/vertex_program.hpp"

namespace mns::congest {
namespace {
constexpr AggValue kInfinity{std::numeric_limits<std::int64_t>::max(),
                             std::numeric_limits<std::int32_t>::max()};

/// Sorts + dedups each CSR range of (offset, flat) in place and compacts the
/// arrays; offsets are rewritten to the deduped ranges.
void sort_unique_compact(std::vector<std::size_t>& offset,
                         std::vector<PartId>& flat) {
  std::size_t write = 0;
  std::size_t range_begin = 0;
  for (std::size_t i = 0; i + 1 < offset.size(); ++i) {
    auto* b = flat.data() + range_begin;
    auto* e = flat.data() + offset[i + 1];
    range_begin = offset[i + 1];
    std::sort(b, e);
    auto* ue = std::unique(b, e);
    offset[i] = write;
    for (auto* p = b; p != ue; ++p) flat[write++] = *p;
  }
  offset.back() = write;
  flat.resize(write);
  flat.shrink_to_fit();
}
}  // namespace

PartwiseAggregator::PartwiseAggregator(const Graph& g, const Partition& parts,
                                       const Shortcut& shortcut)
    : g_(&g), parts_(&parts) {
  require(static_cast<PartId>(shortcut.edges_of_part.size()) ==
              parts.num_parts(),
          "PartwiseAggregator: shortcut size mismatch");
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());

  // parts-of-edge CSR: count, fill, then sort + dedup each range.
  std::vector<std::size_t> count(m, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    PartId pu = parts.part_of(g.edge(e).u);
    PartId pv = parts.part_of(g.edge(e).v);
    if (pu != kNoPart && pu == pv) ++count[static_cast<std::size_t>(e)];
  }
  for (PartId p = 0; p < parts.num_parts(); ++p)
    for (EdgeId e : shortcut.edges_of_part[p])
      ++count[static_cast<std::size_t>(e)];
  poe_offset_.assign(m + 1, 0);
  for (std::size_t e = 0; e < m; ++e)
    poe_offset_[e + 1] = poe_offset_[e] + count[e];
  poe_flat_.resize(poe_offset_[m]);
  std::vector<std::size_t> cursor(poe_offset_.begin(), poe_offset_.end() - 1);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    PartId pu = parts.part_of(g.edge(e).u);
    PartId pv = parts.part_of(g.edge(e).v);
    if (pu != kNoPart && pu == pv)
      poe_flat_[cursor[static_cast<std::size_t>(e)]++] = pu;
  }
  for (PartId p = 0; p < parts.num_parts(); ++p)
    for (EdgeId e : shortcut.edges_of_part[p])
      poe_flat_[cursor[static_cast<std::size_t>(e)]++] = p;
  sort_unique_compact(poe_offset_, poe_flat_);

  // parts-of-node CSR: part membership plus incident communication edges.
  count.assign(n, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (parts.part_of(v) != kNoPart) ++count[static_cast<std::size_t>(v)];
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const std::size_t deg = poe_offset_[static_cast<std::size_t>(e) + 1] -
                            poe_offset_[static_cast<std::size_t>(e)];
    count[static_cast<std::size_t>(g.edge(e).u)] += deg;
    count[static_cast<std::size_t>(g.edge(e).v)] += deg;
  }
  pon_offset_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v)
    pon_offset_[v + 1] = pon_offset_[v] + count[v];
  pon_flat_.resize(pon_offset_[n]);
  cursor.assign(pon_offset_.begin(), pon_offset_.end() - 1);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (parts.part_of(v) != kNoPart)
      pon_flat_[cursor[static_cast<std::size_t>(v)]++] = parts.part_of(v);
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    for (PartId p : parts_of_edge(e)) {
      pon_flat_[cursor[static_cast<std::size_t>(g.edge(e).u)]++] = p;
      pon_flat_[cursor[static_cast<std::size_t>(g.edge(e).v)]++] = p;
    }
  sort_unique_compact(pon_offset_, pon_flat_);
  participations_ = pon_flat_.size();

  // -- per-directed-slot machinery (header comment; DESIGN.md §9) --
  const std::size_t total_bits = 2 * poe_offset_[m];
  require(total_bits < std::numeric_limits<std::uint32_t>::max() &&
              participations_ < std::numeric_limits<std::uint32_t>::max(),
          "PartwiseAggregator: instance exceeds packed 32-bit slot indexing");
  word_off_.assign(2 * m + 1, 0);
  for (std::size_t d = 0; d < 2 * m; ++d) {
    const std::size_t k = poe_offset_[d / 2 + 1] - poe_offset_[d / 2];
    word_off_[d + 1] =
        word_off_[d] + static_cast<std::uint32_t>((k + 63) / 64);
  }
}

namespace {

/// The flooding schedule of aggregate_min as a VertexProgram. Ownership
/// discipline (what makes the parallel fan-out race-free): every directed
/// slot d = 2e + side belongs to its sender endpoint from(d); dirty bits,
/// cursors and the per-vertex active-slot lists of d are touched only while
/// the engine is running from(d) — in the send phase when from(d) transmits,
/// in the receive phase when from(d) absorbs an improvement and re-dirties
/// its own outgoing slots. Per-(node, part) state is v-local by
/// construction. The only cross-vertex structure is the frontier itself,
/// assembled from PerShard lists at the barrier.
///
/// Per-slot bookkeeping is word-packed (DESIGN.md §9): slot d owns the
/// word-aligned dirty bitmask [word_off[d], word_off[d+1]) over
/// parts_of_edge(e), scanned with countr_zero — 1/8th the footprint of a
/// byte-per-part dirty array and O(k/64) for the round-robin scan and the
/// still-dirty check. The transmit order and the re-dirty order are exactly
/// the reference decoder's, so traffic is bit-identical (pinned by the
/// parity tests).
struct AggregationProgram {
  const Graph& g;
  const PartwiseAggregator::SlotTables t;  ///< precomputed (see header)
  std::vector<AggValue>& state;

  std::vector<std::uint64_t> bits;  ///< packed dirty masks, word_off layout
  std::vector<std::uint32_t> cursor;
  std::vector<char> slot_active;
  // Per vertex: owned slots with >= 1 dirty part.
  std::vector<std::vector<std::uint32_t>> active_slots;
  FrontierTracker tracker;

  [[nodiscard]] std::size_t part_count(EdgeId e) const {
    return t.poe_off[static_cast<std::size_t>(e) + 1] -
           t.poe_off[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] std::span<const PartId> edge_parts(EdgeId e) const {
    return {t.poe_flat + t.poe_off[static_cast<std::size_t>(e)],
            t.poe_flat + t.poe_off[static_cast<std::size_t>(e) + 1]};
  }
  [[nodiscard]] std::span<const PartId> node_parts(VertexId v) const {
    return {t.pon_flat + t.pon_off[static_cast<std::size_t>(v)],
            t.pon_flat + t.pon_off[static_cast<std::size_t>(v) + 1]};
  }
  /// Participation slot of (v, p); p must participate at v.
  [[nodiscard]] std::size_t node_slot(VertexId v, PartId p) const {
    const std::span<const PartId> ps = node_parts(v);
    return t.pon_off[static_cast<std::size_t>(v)] +
           static_cast<std::size_t>(
               std::lower_bound(ps.begin(), ps.end(), p) - ps.begin());
  }

  AggregationProgram(Simulator& sim, const PartwiseAggregator::SlotTables& st,
                     std::vector<AggValue>& state_in)
      : g(sim.graph()), t(st), state(state_in),
        bits(t.word_off[static_cast<std::size_t>(g.num_edges()) * 2], 0),
        cursor(static_cast<std::size_t>(g.num_edges()) * 2, 0),
        slot_active(static_cast<std::size_t>(g.num_edges()) * 2, 0),
        active_slots(static_cast<std::size_t>(g.num_vertices())),
        tracker(sim.num_shards(), g.num_vertices()) {
    // Initially every participating (node, edge, part) with a finite value
    // is dirty outward.
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& ed = g.edge(e);
      const std::span<const PartId> ps = edge_parts(e);
      for (std::size_t i = 0; i < ps.size(); ++i) {
        if (!(state[node_slot(ed.u, ps[i])] == kInfinity)) seed_dirty(e, 0, i);
        if (!(state[node_slot(ed.v, ps[i])] == kInfinity)) seed_dirty(e, 1, i);
      }
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (!active_slots[static_cast<std::size_t>(v)].empty()) tracker.seed(v);
  }

  void set_bit(std::size_t d, std::size_t i) {
    bits[t.word_off[d] + (i >> 6)] |= std::uint64_t{1} << (i & 63);
  }

  void seed_dirty(EdgeId e, int side, std::size_t idx) {
    const std::size_t d =
        2 * static_cast<std::size_t>(e) + static_cast<std::size_t>(side);
    set_bit(d, idx);
    if (!slot_active[d]) {
      slot_active[d] = 1;
      const Edge& ed = g.edge(e);
      const VertexId owner = side == 0 ? ed.u : ed.v;
      active_slots[static_cast<std::size_t>(owner)].push_back(
          static_cast<std::uint32_t>(d));
    }
  }

  [[nodiscard]] std::span<const VertexId> frontier() const {
    return tracker.frontier();
  }

  void send(VertexId u, VertexSender& out) {
    // Each active directed slot transmits ONE part's value (round-robin) —
    // the same schedule the sequential loop ran per active edge, now grouped
    // under the owning sender.
    auto& slots = active_slots[static_cast<std::size_t>(u)];
    std::size_t kept = 0;
    for (std::size_t si = 0; si < slots.size(); ++si) {
      const std::uint32_t d = slots[si];
      const EdgeId e = static_cast<EdgeId>(d / 2);
      const std::size_t k = part_count(e);
      std::uint64_t* w = bits.data() + t.word_off[d];
      const std::size_t nw = t.word_off[d + 1] - t.word_off[d];
      const std::size_t cur = cursor[d];
      // First dirty bit in circular order from cur: scan [cur, k) then
      // [0, cur) — the same choice the per-bit reference loop makes.
      std::size_t sent = k;
      for (std::size_t wi = cur >> 6; wi < nw && sent == k; ++wi) {
        std::uint64_t mask = w[wi];
        if (wi == cur >> 6) mask &= ~std::uint64_t{0} << (cur & 63);
        if (mask != 0)
          sent = (wi << 6) +
                 static_cast<std::size_t>(std::countr_zero(mask));
      }
      for (std::size_t wi = 0; wi <= (cur >> 6) && wi < nw && sent == k;
           ++wi) {
        std::uint64_t mask = w[wi];
        if (wi == cur >> 6)
          mask &= (cur & 63) != 0
                      ? (std::uint64_t{1} << (cur & 63)) - 1
                      : 0;
        if (mask != 0)
          sent = (wi << 6) +
                 static_cast<std::size_t>(std::countr_zero(mask));
      }
      bool still_dirty = false;
      if (sent != k) {
        const PartId p =
            t.poe_flat[t.poe_off[static_cast<std::size_t>(e)] + sent];
        const AggValue val = state[node_slot(u, p)];
        out.send(e, Message{p, val.aux, val.value});
        w[sent >> 6] &= ~(std::uint64_t{1} << (sent & 63));
        cursor[d] = static_cast<std::uint32_t>((sent + 1) % k);
        for (std::size_t wi = 0; wi < nw && !still_dirty; ++wi)
          if (w[wi] != 0) still_dirty = true;
      }
      if (still_dirty)
        slots[kept++] = d;
      else
        slot_active[d] = 0;
    }
    slots.resize(kept);
    if (kept > 0) tracker.keep_from_send(u, out.shard());
  }

  void receive(VertexId v, Inbox inbox, int shard) {
    bool woke = false;
    const std::span<const PartId> vparts = node_parts(v);
    const std::size_t vbase = t.pon_off[static_cast<std::size_t>(v)];
    for (const Delivery& del : inbox) {
      const PartId p = del.msg.tag;
      const AggValue incoming{del.msg.value, del.msg.aux};
      const std::size_t s =
          vbase + static_cast<std::size_t>(
                      std::lower_bound(vparts.begin(), vparts.end(), p) -
                      vparts.begin());
      if (incoming < state[s]) {
        state[s] = incoming;
        // Improvements re-dirty v's own outgoing slots for part p.
        for (EdgeId e2 : g.incident_edges(v)) {
          const std::span<const PartId> ps = edge_parts(e2);
          const auto it = std::lower_bound(ps.begin(), ps.end(), p);
          if (it == ps.end() || *it != p) continue;
          const std::size_t idx = static_cast<std::size_t>(it - ps.begin());
          const std::size_t d = 2 * static_cast<std::size_t>(e2) +
                                (g.edge(e2).u == v ? 0u : 1u);
          set_bit(d, idx);
          if (!slot_active[d]) {
            slot_active[d] = 1;
            active_slots[static_cast<std::size_t>(v)].push_back(
                static_cast<std::uint32_t>(d));
            woke = true;
          }
        }
      }
    }
    if (woke) tracker.wake_from_receive(v, shard);
  }

  void end_round() { tracker.end_round(); }
};

}  // namespace

AggregationResult PartwiseAggregator::aggregate_min(
    Simulator& sim, const std::vector<AggValue>& initial) {
  const Graph& g = *g_;
  const Partition& parts = *parts_;
  const VertexId n = g.num_vertices();
  require(static_cast<VertexId>(initial.size()) == n,
          "aggregate_min: initial size mismatch");

  // Flat per-(node, part) state, indexed by the parts-of-node CSR.
  std::vector<AggValue> state(participations_, kInfinity);
  auto slot = [&](VertexId v, PartId p) -> std::size_t {
    const std::span<const PartId> ps = parts_of_node(v);
    auto it = std::lower_bound(ps.begin(), ps.end(), p);
    require(it != ps.end() && *it == p, "aggregate_min: missing slot");
    return pon_offset_[static_cast<std::size_t>(v)] +
           static_cast<std::size_t>(it - ps.begin());
  };
  for (VertexId v = 0; v < n; ++v)
    if (parts.part_of(v) != kNoPart)
      state[slot(v, parts.part_of(v))] = initial[v];

  long long start = sim.rounds();
  AggregationProgram prog(sim, slot_tables(), state);
  (void)run_vertex_program(sim, prog);

  AggregationResult out;
  out.rounds = sim.rounds() - start;
  out.min_of_part.assign(parts.num_parts(), kInfinity);
  for (VertexId v = 0; v < n; ++v) {
    PartId p = parts.part_of(v);
    if (p != kNoPart)
      out.min_of_part[p] = std::min(out.min_of_part[p], state[slot(v, p)]);
  }
  // Convergence check: every member must hold the part minimum.
  for (VertexId v = 0; v < n; ++v) {
    PartId p = parts.part_of(v);
    if (p != kNoPart)
      require(state[slot(v, p)] == out.min_of_part[p],
              "aggregate_min: member did not converge to the part minimum");
  }
  return out;
}

}  // namespace mns::congest
