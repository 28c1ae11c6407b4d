#include "congest/simulator.hpp"

#include <stdexcept>
#include <string>

namespace mns::congest {

namespace {

/// Endpoint-violation text with the offending ids: contract tests assert the
/// `from` vertex and edge id appear verbatim, so misdirected sends are
/// debuggable from the what() string alone.
std::string endpoint_violation(const char* fn, VertexId from, EdgeId edge,
                               const Edge& e) {
  return std::string(fn) + ": from vertex " + std::to_string(from) +
         " is not an endpoint of edge " + std::to_string(edge) + " (" +
         std::to_string(e.u) + ", " + std::to_string(e.v) + ")";
}

}  // namespace

Simulator::Simulator(const Graph& g)
    : g_(&g),
      pending_to_(ArenaAllocator<VertexId>(&arena_)),
      pending_slot_(ArenaAllocator<std::uint32_t>(&arena_)),
      pending_msg_(ArenaAllocator<Message>(&arena_)),
      used_list_(ArenaAllocator<std::uint32_t>(&arena_)),
      inbox_slot_(ArenaAllocator<std::uint32_t>(&arena_)),
      inbox_msg_(ArenaAllocator<Message>(&arena_)),
      frontier_(ArenaAllocator<VertexId>(&arena_)) {
  used_.assign(static_cast<std::size_t>(g.num_edges()) * 2, 0);
  inbox_begin_.assign(g.num_vertices(), 0);
  inbox_count_.assign(g.num_vertices(), 0);
  inbox_cursor_.assign(g.num_vertices(), 0);
  set_threads(1);
}

void Simulator::set_threads(int threads) {
  if (threads < 1)
    throw InvariantViolation("Simulator::set_threads: threads must be >= 1, "
                             "got " + std::to_string(threads));
  if (!pending_to_.empty())
    throw std::logic_error(
        "Simulator::set_threads: sends pending; the width may only change "
        "between rounds");
  for (int s = 0; s < num_shards_; ++s)
    if (!shards_[static_cast<std::size_t>(s)].entries.empty())
      throw std::logic_error(
          "Simulator::set_threads: staged sends pending; the width may only "
          "change between rounds");
  if (threads != num_shards_) {
    num_shards_ = threads;
    // SendShards own arenas (non-movable), so the block is rebuilt whole;
    // the old shards were verified empty above.
    shards_ = std::make_unique<SendShard[]>(static_cast<std::size_t>(threads));
    pool_.reset();  // rebuilt lazily at the new width
  }
}

WorkerPool& Simulator::pool() {
  if (!pool_) pool_ = std::make_unique<WorkerPool>(num_shards_);
  return *pool_;
}

Arena::Stats Simulator::arena_stats() const {
  Arena::Stats total = arena_.stats();
  for (int s = 0; s < num_shards_; ++s) {
    const Arena::Stats& st = shards_[static_cast<std::size_t>(s)].arena.stats();
    total.block_requests += st.block_requests;
    total.slabs += st.slabs;
    total.bytes_reserved += st.bytes_reserved;
  }
  return total;
}

void Simulator::send(VertexId from, EdgeId edge, const Message& msg) {
  const Edge& e = g_->edge(edge);
  if (e.u != from && e.v != from)
    throw std::invalid_argument(
        endpoint_violation("Simulator::send", from, edge, e));
  const std::size_t slot =
      2 * static_cast<std::size_t>(edge) + (from == e.u ? 0 : 1);
  if (used_[slot])
    throw std::invalid_argument(
        "Simulator::send: directed edge already used this round (CONGEST "
        "capacity violated)");
  used_[slot] = 1;
  used_list_.push_back(static_cast<std::uint32_t>(slot));
  VertexId to = (from == e.u) ? e.v : e.u;
  pending_to_.push_back(to);
  pending_slot_.push_back(static_cast<std::uint32_t>(slot));
  pending_msg_.push_back(msg);
  ++messages_;
}

void Simulator::stage_send(int shard, VertexId from, EdgeId edge,
                           const Message& msg) {
  // Validation strictly precedes the buffer write: a throwing call leaves
  // the shard's arena cursor untouched (DESIGN.md §9).
  if (shard < 0 || shard >= num_shards_)
    throw std::out_of_range("Simulator::stage_send: shard out of range");
  const Edge& e = g_->edge(edge);
  if (e.u != from && e.v != from)
    throw std::invalid_argument(
        endpoint_violation("Simulator::stage_send", from, edge, e));
  const std::uint32_t slot = static_cast<std::uint32_t>(
      2 * static_cast<std::size_t>(edge) + (from == e.u ? 0 : 1));
  const VertexId to = (from == e.u) ? e.v : e.u;
  shards_[static_cast<std::size_t>(shard)].entries.push_back(
      StagedSend{slot, to, msg});
}

void Simulator::finish_round() {
  // Validate the staged shard sends BEFORE mutating anything the caller can
  // observe, so a CONGEST capacity violation leaves the simulator exactly
  // as sequential send() would: round not counted, direct sends still
  // pending, inboxes intact. The poisoned round's staged sends are
  // discarded (they were never counted), keeping the simulator usable
  // after a caught violation. The check runs here, on one thread, in the
  // deterministic merge order.
  const std::size_t used_mark = used_list_.size();
  for (int sh = 0; sh < num_shards_; ++sh) {
    for (const StagedSend& s : shards_[static_cast<std::size_t>(sh)].entries) {
      if (used_[s.slot]) {
        for (std::size_t i = used_mark; i < used_list_.size(); ++i)
          used_[used_list_[i]] = 0;
        used_list_.resize(used_mark);
        for (int k = 0; k < num_shards_; ++k)
          shards_[static_cast<std::size_t>(k)].entries.clear();
        throw std::invalid_argument(
            "Simulator::finish_round: directed edge already used this round "
            "(CONGEST capacity violated by a staged send)");
      }
      used_[s.slot] = 1;
      used_list_.push_back(s.slot);
    }
  }
  ++rounds_;
  // Retire the previous round's inboxes: only the old frontier is touched.
  for (VertexId v : frontier_) inbox_count_[v] = 0;
  frontier_.clear();
  // Merge staged shard sends into the canonical pending list. Order is
  // direct send()s first (in call order), then shard 0, 1, ... each in its
  // own staging order. The vertex engine stages a contiguous block of the
  // canonical frontier into each shard, so this concatenation reproduces the
  // sequential send order EXACTLY — inboxes, counters and delivered_to() are
  // bit-identical at any thread count.
  for (int sh = 0; sh < num_shards_; ++sh) {
    SendShard& shard = shards_[static_cast<std::size_t>(sh)];
    for (const StagedSend& s : shard.entries) {
      pending_to_.push_back(s.to);
      pending_slot_.push_back(s.slot);
      pending_msg_.push_back(s.msg);
      ++messages_;
    }
    shard.entries.clear();
  }
  // Count messages per destination; destinations join the frontier on
  // their first message. Sort-free CSR: the per-destination counts become
  // contiguous ranges in frontier order.
  const std::size_t m = pending_to_.size();
  for (std::size_t i = 0; i < m; ++i) {
    VertexId to = pending_to_[i];
    if (inbox_count_[to]++ == 0) frontier_.push_back(to);
  }
  std::uint32_t offset = 0;
  for (VertexId v : frontier_) {
    inbox_begin_[v] = offset;
    inbox_cursor_[v] = offset;
    offset += inbox_count_[v];
  }
  // Scatter into the reused packed buffers (capacity persists across
  // rounds; resize only adjusts the logical size).
  inbox_slot_.resize(m);
  inbox_msg_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint32_t c = inbox_cursor_[pending_to_[i]]++;
    inbox_slot_[c] = pending_slot_[i];
    inbox_msg_[c] = pending_msg_[i];
  }
  pending_to_.clear();
  pending_slot_.clear();
  pending_msg_.clear();
  // Reset CONGEST capacity for the next round: only used entries touched.
  for (std::uint32_t slot : used_list_) used_[slot] = 0;
  used_list_.clear();
}

void Simulator::skip_rounds(long long rounds) {
  if (rounds < 0)
    throw std::invalid_argument(
        "Simulator::skip_rounds: negative round count would corrupt the "
        "charged-round accounting");
  rounds_ += rounds;
}

}  // namespace mns::congest
