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

/// Counting pass of a sort-free part-list CSR over `rows` rows. `visit(add)`
/// must call add(row, p) with p nondecreasing over the whole visit, so a row
/// only ever repeats its last entry: dropping those repeats leaves every row
/// sorted and deduplicated. Writes the row offsets (uint32; they wrap only if
/// the total overflows, which the caller's guard rejects before fill_rows)
/// and returns the total.
template <typename Visit>
std::size_t count_rows(std::size_t rows, Visit&& visit,
                       std::vector<std::uint32_t>& off) {
  std::vector<PartId> last(rows, kNoPart);
  off.assign(rows + 1, 0);
  visit([&](std::size_t r, PartId p) {
    if (last[r] != p) {
      last[r] = p;
      ++off[r + 1];
    }
  });
  std::size_t total = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    total += off[r + 1];
    off[r + 1] = static_cast<std::uint32_t>(total);
  }
  return total;
}

/// Fill pass over the same visit: appends p to row r unless it is already
/// the row's last entry.
template <typename Visit>
void fill_rows(Visit&& visit, const std::vector<std::uint32_t>& off,
               std::vector<PartId>& flat) {
  flat.resize(off.back());
  std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
  visit([&](std::size_t r, PartId p) {
    if (cursor[r] == off[r] || flat[cursor[r] - 1] != p)
      flat[cursor[r]++] = p;
  });
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

  // Both part-list CSRs visit parts in increasing id (DESIGN.md §9). Parts
  // of edge e: the part of both endpoints (an intra-part edge, found from
  // the part's members) and every part whose shortcut holds e.
  const auto edge_parts = [&](auto&& add) {
    for (PartId p = 0; p < parts.num_parts(); ++p) {
      for (VertexId v : parts.members(p)) {
        const std::span<const VertexId> nbrs = g.neighbors(v);
        const std::span<const EdgeId> inc = g.incident_edges(v);
        for (std::size_t j = 0; j < inc.size(); ++j)
          if (parts.part_of(nbrs[j]) == p)
            add(static_cast<std::size_t>(inc[j]), p);
      }
      for (EdgeId e : shortcut.edges_of_part[p])
        add(static_cast<std::size_t>(e), p);
    }
  };
  // Parts of node v: its own part plus the parts of its incident edges —
  // the members of p and the endpoints of p's shortcut edges (intra-part
  // edges join members only).
  const auto node_parts = [&](auto&& add) {
    for (PartId p = 0; p < parts.num_parts(); ++p) {
      for (VertexId v : parts.members(p)) add(static_cast<std::size_t>(v), p);
      for (EdgeId e : shortcut.edges_of_part[p]) {
        add(static_cast<std::size_t>(g.edge(e).u), p);
        add(static_cast<std::size_t>(g.edge(e).v), p);
      }
    }
  };
  const std::size_t edge_total = count_rows(m, edge_parts, poe_offset_);
  participations_ = count_rows(n, node_parts, pon_offset_);
  const std::size_t total_bits = 2 * edge_total;
  check_packed_index_range(total_bits, participations_);
  fill_rows(edge_parts, poe_offset_, poe_flat_);
  fill_rows(node_parts, pon_offset_, pon_flat_);

  // -- per-directed-slot machinery (header comments; DESIGN.md §9) --
  word_off_.assign(2 * m + 1, 0);
  for (std::size_t d = 0; d < 2 * m; ++d) {
    const std::uint32_t k = poe_offset_[d / 2 + 1] - poe_offset_[d / 2];
    word_off_[d + 1] = word_off_[d] + (k + 63) / 64;
  }
  // Sender-slot table: a merge of the edge's sorted parts into each
  // endpoint's sorted parts (a superset), one forward search per part.
  sender_slot_.resize(total_bits);
  for (std::size_t e = 0; e < m; ++e) {
    const Edge& ed = g.edge(static_cast<EdgeId>(e));
    for (std::size_t side = 0; side < 2; ++side) {
      const VertexId x = side == 0 ? ed.u : ed.v;
      const std::span<const PartId> ps = parts_of_node(x);
      auto it = ps.begin();
      for (std::uint32_t b = poe_offset_[e]; b < poe_offset_[e + 1]; ++b) {
        it = std::lower_bound(it, ps.end(), poe_flat_[b]);
        sender_slot_[2 * std::size_t{b} + side] =
            pon_offset_[static_cast<std::size_t>(x)] +
            static_cast<std::uint32_t>(it - ps.begin());
      }
    }
  }
  // Re-dirty CSR: counting sort of every (slot, bit) by its sender's
  // participation slot, filled walking each vertex's incident edges in
  // order so every list keeps incident_edges(v) order.
  redirty_offset_.assign(participations_ + 1, 0);
  for (std::uint32_t s : sender_slot_) ++redirty_offset_[s + 1];
  for (std::size_t s = 0; s < participations_; ++s)
    redirty_offset_[s + 1] += redirty_offset_[s];
  redirty_.resize(total_bits);
  std::vector<std::uint32_t> cursor(redirty_offset_.begin(),
                                    redirty_offset_.end() - 1);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (EdgeId e : g.incident_edges(v)) {
      const std::uint32_t side = g.edge(e).u == v ? 0u : 1u;
      const std::uint32_t d = 2 * static_cast<std::uint32_t>(e) + side;
      const std::uint32_t first = poe_offset_[static_cast<std::size_t>(e)];
      const std::uint32_t last = poe_offset_[static_cast<std::size_t>(e) + 1];
      for (std::uint32_t b = first; b < last; ++b)
        redirty_[cursor[sender_slot_[2 * std::size_t{b} + side]]++] =
            SlotBit{d, b - first};
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
/// still-dirty check. Sends read the sender's value through the sender-slot
/// table and improvements walk the re-dirty CSR, so the only search left is
/// one lower_bound per delivery (the wire tag is the part id). The transmit
/// order and the re-dirty order are exactly the reference decoder's, so
/// traffic is bit-identical (pinned by the golden-traffic and parity tests).
struct AggregationProgram {
  const Graph& g;
  const PartwiseAggregator::SlotTables t;  ///< precomputed (see header)
  std::vector<AggValue>& state;
  /// incident_edges(0).data(): v's active-slot list is based at its
  /// half-edge offset incident_edges(v).data() - half_edges, since v owns at
  /// most deg(v) directed slots.
  const EdgeId* half_edges;

  std::vector<std::uint64_t> bits;  ///< packed dirty masks, word_off layout
  std::vector<std::uint32_t> cursor;
  std::vector<char> slot_active;
  // Per vertex v: owned slots with >= 1 dirty part, in activation order, at
  // [base(v), base(v) + active_count[v]) of one flat array.
  std::vector<std::uint32_t> active;
  std::vector<std::uint32_t> active_count;
  FrontierTracker tracker;

  [[nodiscard]] std::span<const PartId> node_parts(VertexId v) const {
    return {t.pon_flat + t.pon_off[static_cast<std::size_t>(v)],
            t.pon_flat + t.pon_off[static_cast<std::size_t>(v) + 1]};
  }
  [[nodiscard]] std::uint32_t* active_list(VertexId v) {
    return active.data() + (g.incident_edges(v).data() - half_edges);
  }

  AggregationProgram(Simulator& sim, const PartwiseAggregator::SlotTables& st,
                     std::vector<AggValue>& state_in)
      : g(sim.graph()), t(st), state(state_in),
        half_edges(g.num_vertices() > 0 ? g.incident_edges(0).data()
                                        : nullptr),
        bits(t.word_off[static_cast<std::size_t>(g.num_edges()) * 2], 0),
        cursor(static_cast<std::size_t>(g.num_edges()) * 2, 0),
        slot_active(static_cast<std::size_t>(g.num_edges()) * 2, 0),
        active(static_cast<std::size_t>(g.num_edges()) * 2),
        active_count(static_cast<std::size_t>(g.num_vertices()), 0),
        tracker(sim.num_shards(), g.num_vertices()) {
    // Initially every participating (node, edge, part) with a finite value
    // is dirty outward.
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& ed = g.edge(e);
      const std::uint32_t d = 2 * static_cast<std::uint32_t>(e);
      const std::uint32_t first = t.poe_off[static_cast<std::size_t>(e)];
      const std::uint32_t last = t.poe_off[static_cast<std::size_t>(e) + 1];
      for (std::uint32_t b = first; b < last; ++b) {
        if (!(state[t.sender_slot[2 * std::size_t{b}]] == kInfinity))
          mark_dirty(ed.u, d, b - first);
        if (!(state[t.sender_slot[2 * std::size_t{b} + 1]] == kInfinity))
          mark_dirty(ed.v, d + 1, b - first);
      }
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (active_count[static_cast<std::size_t>(v)] != 0) tracker.seed(v);
  }

  /// Sets bit `i` of `owner`'s slot d; returns true if d was idle and has
  /// joined owner's active list.
  bool mark_dirty(VertexId owner, std::uint32_t d, std::uint32_t i) {
    bits[t.word_off[d] + (i >> 6)] |= std::uint64_t{1} << (i & 63);
    if (slot_active[d]) return false;
    slot_active[d] = 1;
    active_list(owner)[active_count[static_cast<std::size_t>(owner)]++] = d;
    return true;
  }

  [[nodiscard]] std::span<const VertexId> frontier() const {
    return tracker.frontier();
  }

  void send(VertexId u, VertexSender& out) {
    // Each active directed slot transmits ONE part's value (round-robin) —
    // the same schedule the sequential loop ran per active edge, now grouped
    // under the owning sender.
    std::uint32_t* slots = active_list(u);
    std::uint32_t& count = active_count[static_cast<std::size_t>(u)];
    std::uint32_t kept = 0;
    for (std::uint32_t si = 0; si < count; ++si) {
      const std::uint32_t d = slots[si];
      const EdgeId e = static_cast<EdgeId>(d / 2);
      const std::uint32_t first = t.poe_off[d / 2];
      const std::size_t k = t.poe_off[d / 2 + 1] - first;
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
        const std::size_t b = first + sent;
        const AggValue val = state[t.sender_slot[2 * b + (d & 1u)]];
        out.send(e, Message{t.poe_flat[b], val.aux, val.value});
        w[sent >> 6] &= ~(std::uint64_t{1} << (sent & 63));
        cursor[d] = sent + 1 == k ? 0 : static_cast<std::uint32_t>(sent + 1);
        for (std::size_t wi = 0; wi < nw && !still_dirty; ++wi)
          if (w[wi] != 0) still_dirty = true;
      }
      if (still_dirty)
        slots[kept++] = d;
      else
        slot_active[d] = 0;
    }
    count = kept;
    if (kept > 0) tracker.keep_from_send(u, out.shard());
  }

  void receive(VertexId v, Inbox inbox, int shard) {
    bool woke = false;
    const std::span<const PartId> vparts = node_parts(v);
    const std::uint32_t vbase = t.pon_off[static_cast<std::size_t>(v)];
    for (const Delivery& del : inbox) {
      const AggValue incoming{del.msg.value, del.msg.aux};
      const std::uint32_t s =
          vbase + static_cast<std::uint32_t>(
                      std::lower_bound(vparts.begin(), vparts.end(),
                                       del.msg.tag) -
                      vparts.begin());
      if (incoming < state[s]) {
        state[s] = incoming;
        // Improvements re-dirty v's own outgoing slots for the part.
        for (std::uint32_t r = t.redirty_off[s]; r < t.redirty_off[s + 1];
             ++r)
          woke |= mark_dirty(v, t.redirty[r].slot, t.redirty[r].bit);
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
