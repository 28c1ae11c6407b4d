// Part-wise aggregation — the primitive Theorem 1 accelerates. Every part
// must compute (and disseminate to all its members) the minimum of its
// members' values. Communication of part p flows over G[P_p] plus p's
// shortcut edges H_p, with the CONGEST capacity of one message per directed
// edge per round honestly simulated: parts sharing a tree edge queue behind
// each other, so congestion shows up as real measured rounds. With an empty
// shortcut this degrades to intra-part flooding — the naive baseline whose
// round count is the isolated part diameter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "congest/simulator.hpp"
#include "core/partition.hpp"
#include "core/shortcut.hpp"

namespace mns::congest {

/// A value with a tiebreaker, compared lexicographically.
struct AggValue {
  std::int64_t value = 0;
  std::int32_t aux = 0;
  friend bool operator<(const AggValue& a, const AggValue& b) {
    return std::pair(a.value, a.aux) < std::pair(b.value, b.aux);
  }
  friend bool operator==(const AggValue&, const AggValue&) = default;
};

struct AggregationResult {
  std::vector<AggValue> min_of_part;
  long long rounds = 0;
};

/// The aggregator's 32-bit packed-index guard (DESIGN.md §9). `total_bits`
/// counts the (directed slot, part-of-edge) pairs — the dirty bits, and the
/// entries of the sender-slot and re-dirty tables — and `participations`
/// the (node, part) pairs. Both must stay below 2^32 - 1 so that every
/// offset, slot and table entry fits a uint32; throws InvariantViolation
/// otherwise.
inline void check_packed_index_range(std::size_t total_bits,
                                     std::size_t participations) {
  require(total_bits < std::numeric_limits<std::uint32_t>::max() &&
              participations < std::numeric_limits<std::uint32_t>::max(),
          "PartwiseAggregator: instance exceeds packed 32-bit slot indexing");
}

class PartwiseAggregator {
 public:
  /// Precomputes the per-part communication graphs. `shortcut` may be empty
  /// (edges_of_part all empty) for the no-shortcut baseline.
  PartwiseAggregator(const Graph& g, const Partition& parts,
                     const Shortcut& shortcut);

  /// Distributed min: `initial[v]` is v's input (only read for vertices that
  /// belong to a part). On return every member of part p holds
  /// min_of_part[p]; the simulator's round counter advances by the measured
  /// number of communication rounds.
  [[nodiscard]] AggregationResult aggregate_min(
      Simulator& sim, const std::vector<AggValue>& initial);

  /// Number of (node, part) participation pairs — a size/memory metric.
  [[nodiscard]] std::size_t participations() const noexcept {
    return participations_;
  }

  /// One re-dirty entry: bit `bit` of directed slot `slot`.
  struct SlotBit {
    std::uint32_t slot;
    std::uint32_t bit;
  };

  /// Raw-pointer view of the precomputed tables (members below), handed to
  /// aggregate_min's internal VertexProgram.
  struct SlotTables {
    const std::uint32_t* poe_off;
    const PartId* poe_flat;
    const std::uint32_t* pon_off;
    const PartId* pon_flat;
    const std::uint32_t* word_off;
    const std::uint32_t* sender_slot;
    const std::uint32_t* redirty_off;
    const SlotBit* redirty;
  };
  [[nodiscard]] SlotTables slot_tables() const noexcept {
    return {poe_offset_.data(),     poe_flat_.data(), pon_offset_.data(),
            pon_flat_.data(),       word_off_.data(), sender_slot_.data(),
            redirty_offset_.data(), redirty_.data()};
  }

 private:
  const Graph* g_;
  const Partition* parts_;
  // Per-edge / per-node part lists in CSR form (sorted within each range).
  // Flat arrays instead of vector-of-vectors: at n = 2^20 the m inner
  // vectors alone cost tens of MB of headers and a heap allocation each —
  // the DESIGN.md §9 memory model keeps the per-round data path flat.
  // Offsets are uint32 under check_packed_index_range.
  std::vector<std::uint32_t> poe_offset_;  // size m+1; parts of edge e
  std::vector<PartId> poe_flat_;
  std::vector<std::uint32_t> pon_offset_;  // size n+1; parts of node v
  std::vector<PartId> pon_flat_;
  std::size_t participations_ = 0;

  // Dirty-word offsets for aggregate_min's packed per-slot bitmasks
  // (DESIGN.md §9): directed slot d = 2e + side owns one dirty bit per part
  // of edge e, stored word-aligned in ceil(k/64) uint64 words at
  // word_off_[d]. Offsets are precomputed here (they depend only on the
  // partition); the words themselves live in the per-call program so the
  // aggregator stays read-only during rounds.
  std::vector<std::uint32_t> word_off_;  // size 2m+1

  // Sender-slot table: bit i of directed slot d = 2e + side maps to the
  // sender's participation slot (index into the per-(node, part) state) at
  // sender_slot_[2 * (poe_offset_[e] + i) + side]. Size total_bits.
  std::vector<std::uint32_t> sender_slot_;
  // Re-dirty CSR over participation slots: slot (v, p) lists the (directed
  // slot, bit) pairs of v's outgoing slots that carry p, in
  // incident_edges(v) order — what an improvement of (v, p) marks dirty.
  std::vector<std::uint32_t> redirty_offset_;  // size participations+1
  std::vector<SlotBit> redirty_;               // size total_bits

  [[nodiscard]] std::span<const PartId> parts_of_node(VertexId v) const {
    return {pon_flat_.data() + pon_offset_[static_cast<std::size_t>(v)],
            pon_flat_.data() + pon_offset_[static_cast<std::size_t>(v) + 1]};
  }
};

}  // namespace mns::congest
