// Per-layer metrics of the traced run: span summaries of the traced passes,
// plus probes that time single layers' public calls on the workload's first
// instance. Probes run only in the traced run, after its passes.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "congest/solver_core.hpp"
#include "congest/solve_handle.hpp"
#include "instances.hpp"

namespace perfbench {

struct ProbeTarget {
  std::shared_ptr<const mns::congest::SolverCore> core;  ///< warm, post-pass
  const Instance* inst = nullptr;  ///< the instance `core` was built over
  RunContext ctx;
};

/// Sets the congest.solve_ms / ns_per_message / phase_ms and
/// serve.request_ms metrics that `totals` has spans for and `m` lacks.
/// Phase times are divided by `passes` (ms per pass).
void metrics_from_spans(const std::map<std::string, SpanTotals>& totals,
                        double passes, Metrics& m);

/// Runs every layer probe on `target`; `reports` are the last pass's
/// RunReports (rendered by the io.report_json probe). Metrics a workload
/// already measured on its own operations (churn's updates, serve-warm's
/// requests and solves) are left as they are; the rest are filled in by
/// probes on `fill`, which must be small enough for the exact min-cut
/// oracle (n ~ 10^3).
void probe_layers(const ProbeTarget& target, const ProbeTarget& fill,
                  const std::vector<mns::congest::RunReport>& reports,
                  SpanLog& log, Metrics& m, Outcome& outcome);

}  // namespace perfbench
