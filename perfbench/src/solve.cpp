#include "solve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include "congest/dominating_set.hpp"
#include "congest/mis.hpp"
#include "congest/mst.hpp"
#include "graph/algorithms.hpp"

namespace perfbench {

using namespace mns;
using congest::RunReport;

congest::RoundTraceHook phase_marks(SpanLog* log) {
  if (!log)
    return [](const congest::RoundTrace&) { SpeedClock::local().mark(); };
  auto mark = std::make_shared<Clock::time_point>(Clock::now());
  return [log, mark](const congest::RoundTrace& t) {
    log->record(std::string("congest.phase/") + t.stage, *mark, Clock::now(),
                t.messages);
    SpeedClock::local().mark();
    *mark = Clock::now();
  };
}

bool hook_only_observes(const std::string& kind) {
  return kind == "mst" || kind == "mincut" || kind == "sssp.approx";
}

congest::WorkloadParams approx_sssp_params(const Graph& g,
                                           std::vector<Weight> weights,
                                           VertexId source) {
  congest::WorkloadParams p;
  p.weights = std::move(weights);
  p.source = source;
  p.epsilon = 0.25;
  p.num_seeds = std::max<VertexId>(
      8, static_cast<VertexId>(
             std::sqrt(static_cast<double>(g.num_vertices()))) / 8);
  p.repartition_growth = 1.0;
  p.wavefront_seeds = false;
  return p;
}

std::vector<congest::AggValue> ramp_values(VertexId n) {
  std::vector<congest::AggValue> v(static_cast<std::size_t>(n));
  for (VertexId i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] = {(7 * i) % 101, i};
  return v;
}

namespace {

Weight mst_weight(const std::vector<EdgeId>& edges,
                  const std::vector<Weight>& w) {
  Weight total = 0;
  for (const EdgeId e : edges) total += w[static_cast<std::size_t>(e)];
  return total;
}

bool within_approx(const std::vector<Weight>& got,
                   const std::vector<Weight>& exact, double eps) {
  if (got.size() != exact.size()) return false;
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (exact[v] == kUnreachedWeight) {
      if (got[v] != kUnreachedWeight) return false;
      continue;
    }
    if (got[v] < exact[v] ||
        static_cast<double>(got[v]) >
            (1.0 + eps + 1e-9) * static_cast<double>(exact[v]))
      return false;
  }
  return true;
}

}  // namespace

void check_solve(const Graph& g, const SolveSpec& spec, const RunReport& r,
                 Outcome& outcome, const std::string& label) {
  const std::string what = label + " " + spec.kind;
  const congest::WorkloadParams& p = spec.params;
  bool ok = false;
  if (spec.kind == "mst") {
    const std::vector<EdgeId> oracle = congest::kruskal_mst(g, p.weights);
    ok = r.mst().edges.size() == oracle.size() &&
         mst_weight(r.mst().edges, p.weights) == mst_weight(oracle, p.weights);
  } else if (spec.kind == "sssp.exact") {
    ok = r.sssp().dist == dijkstra(g, p.weights, p.source).dist;
  } else if (spec.kind == "sssp.approx") {
    ok = within_approx(r.sssp().dist, dijkstra(g, p.weights, p.source).dist,
                       p.epsilon);
  } else if (spec.kind == "bfs") {
    ok = r.bfs().dist == bfs(g, p.source).dist;
  } else if (spec.kind == "mis") {
    const std::vector<char>& in = r.mis().in_mis;
    ok = congest::verify_maximal_independent_set(g, in).empty() &&
         r.mis().size == std::count(in.begin(), in.end(), 1);
  } else if (spec.kind == "domset") {
    ok = congest::verify_dominating_set(g, r.domset().in_set).empty();
  } else if (spec.kind == "mincut") {
    // A packing tree's best 1-respecting cut is a real cut: never below the
    // exact minimum, and positive on a connected graph.
    ok = r.min_cut().value >= congest::exact_min_cut(g, p.weights);
  } else if (spec.kind == "aggregate") {
    std::vector<congest::AggValue> expect;
    for (std::size_t v = 0; v < spec.part_of.size(); ++v) {
      const PartId part = spec.part_of[v];
      if (part == kNoPart) continue;
      if (expect.size() <= static_cast<std::size_t>(part))
        expect.resize(static_cast<std::size_t>(part) + 1,
                      {std::numeric_limits<std::int64_t>::max(), 0});
      expect[static_cast<std::size_t>(part)] =
          std::min(expect[static_cast<std::size_t>(part)], spec.values[v]);
    }
    ok = r.aggregate().min_of_part == expect;
  }
  outcome.check(ok, what);
}

}  // namespace perfbench
