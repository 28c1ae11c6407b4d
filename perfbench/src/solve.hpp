// Calls into the congest layer, timed from outside and optionally traced,
// plus the sequential oracles every result is checked against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "congest/solve_handle.hpp"

namespace perfbench {

/// The registry workloads the benchmark issues, plus the typed Aggregate
/// solve; per-layer solve metrics are keyed by these names.
inline const std::vector<std::string>& solve_kinds() {
  static const std::vector<std::string> kinds = {
      "mst", "sssp.approx", "sssp.exact", "bfs",
      "mis", "domset",      "mincut",     "aggregate"};
  return kinds;
}

/// The stages RoundTrace hooks report for those workloads.
inline const std::vector<std::string>& phase_stages() {
  static const std::vector<std::string> stages = {
      "boruvka-phase", "scale-phase", "luby-phase", "span-phase",
      "packing-tree"};
  return stages;
}

/// One solve request: a registry workload name with its parameters, or
/// "aggregate" with a partition and values.
struct SolveSpec {
  std::string kind;
  mns::congest::WorkloadParams params;
  std::vector<mns::PartId> part_of;                ///< aggregate only
  std::vector<mns::congest::AggValue> values;      ///< aggregate only
};

/// sssp.approx in the bench_scale configuration: source-independent cells
/// (cacheable across sources), sqrt(n)/8 seeds, eps = 0.25.
mns::congest::WorkloadParams approx_sssp_params(
    const mns::Graph& g, std::vector<mns::Weight> weights,
    mns::VertexId source);

struct TimedReport {
  mns::congest::RunReport report;
  OpTime time;
};

/// A RoundTrace hook that marks the thread's SpeedClock at every phase
/// boundary. With a log it also records each phase as a
/// "congest.phase/<stage>" span, from the previous phase's end (or the
/// hook's creation) to the hook's call, with the phase's messages as its
/// count; the clock's probe falls between two phase spans.
mns::congest::RoundTraceHook phase_marks(SpanLog* log);

/// Whether `kind` reacts to a RoundTrace hook only by calling it. mis and
/// domset drive their rounds differently when a hook is set, so an untraced
/// solve of theirs gets no hook.
bool hook_only_observes(const std::string& kind);

/// Runs `spec` on `solver` (a congest::Session or SolveHandle), timing the
/// call from outside with the thread's SpeedClock. With a log, the call is a
/// "congest.solve/<kind>" span whose count is the simulated messages, with
/// phase spans as children.
template <typename Solver>
TimedReport timed_solve(Solver& solver, const SolveSpec& spec, SpanLog* log,
                        long long op) {
  TimedReport out;
  SpeedClock& clock = SpeedClock::local();
  clock.start();
  {
    Scope scope(log, "congest.solve/" + spec.kind, op);
    mns::congest::SolveOptions opt;
    if (log || hook_only_observes(spec.kind)) opt.trace = phase_marks(log);
    if (spec.kind == "aggregate")
      out.report = solver.solve(
          mns::congest::Aggregate{mns::Partition(spec.part_of), spec.values},
          opt);
    else
      out.report = solver.solve(spec.kind, spec.params, opt);
    scope.set_count(out.report.messages);
  }
  out.time = clock.stop();
  return out;
}

/// Adds one report's simulated cost and cache traffic to a pass.
inline void add_report(PassStats& st, const mns::congest::RunReport& r) {
  st.sim_rounds += r.total_rounds();
  st.sim_messages += r.messages;
  st.charged_rounds += r.charged_construction_rounds;
  st.cache_hits += r.cache_hits;
  st.cache_misses += r.cache_misses;
}

/// Checks one result against its sequential oracle; failures are counted
/// in `outcome` under `label`.
void check_solve(const mns::Graph& g, const SolveSpec& spec,
                 const mns::congest::RunReport& report, Outcome& outcome,
                 const std::string& label);

/// (7i mod 101, i) ramp: a deterministic aggregate input.
std::vector<mns::congest::AggValue> ramp_values(mns::VertexId n);

}  // namespace perfbench
