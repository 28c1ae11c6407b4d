// The worker pool behind the vertex-parallel round engine (DESIGN.md §7) and
// serve::QueryServer. The CONGEST capacity rule — one message per directed
// edge per round — makes per-vertex send work naturally conflict-free:
// directed edge slot 2e+side is written only by its `from` endpoint, and the
// engine assigns every vertex to exactly one shard, so staging buffers never
// race. The engine's width is a plain thread count (Simulator::set_threads,
// SolveOptions::threads); it changes WALL CLOCK only: rounds, messages,
// inbox contents and every algorithm result are bit-identical to sequential
// execution (the deterministic shard-merge in Simulator::finish_round() is
// what pins this down; see DESIGN.md §7 for the argument).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mns::congest {

/// A tiny persistent fork-join pool: run(tasks, fn) executes fn(0..tasks-1)
/// across the pool (the calling thread participates) and returns when every
/// task finished. Workers sleep on a condition variable between rounds, so
/// oversubscribed configurations (threads > cores, or a 1-core CI box) stay
/// correct and merely gain nothing. The first exception thrown by any task
/// is rethrown on the calling thread after the join — Simulator::stage_send
/// validation errors propagate exactly like sequential send() throws.
class WorkerPool {
 public:
  /// Spawns `threads - 1` workers (the caller is the remaining one).
  explicit WorkerPool(int threads);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  [[nodiscard]] int threads() const noexcept {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Non-owning type-erased task callback. run() borrows the callable by
  /// pointer instead of wrapping it in std::function — per-phase dispatch
  /// performs NO heap allocation, which the steady-state allocation contract
  /// (DESIGN.md §9) depends on: the engine calls run() twice per round.
  using TaskFn = void (*)(void* ctx, int task);

  /// Blocks until fn(ctx, t) ran for every t in [0, tasks). Tasks are
  /// claimed dynamically; which THREAD runs a task is irrelevant to
  /// determinism because all engine state is indexed by task (shard) id,
  /// never by thread identity. Not reentrant. The callable behind `ctx`
  /// must stay alive until run() returns.
  void run(int tasks, void* ctx, TaskFn fn);

  /// Convenience adapter for lambdas: run(n, [&](int t) { ... }).
  template <typename Fn>
  void run(int tasks, Fn&& fn) {
    using Decayed = std::remove_reference_t<Fn>;
    run(tasks, const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
        [](void* ctx, int task) { (*static_cast<Decayed*>(ctx))(task); });
  }

 private:
  void worker_loop();
  void claim_and_run();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers wait for a new generation
  std::condition_variable done_cv_;  ///< run() waits for completion
  void* job_ctx_ = nullptr;
  TaskFn job_ = nullptr;
  int tasks_ = 0;
  int next_task_ = 0;
  int finished_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr first_error_;
  bool shutdown_ = false;
};

}  // namespace mns::congest
