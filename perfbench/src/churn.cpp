// churn: writes beside the reads. A 32x32 planar grid and a 4-bag apexed
// clique-sum chain, each under three seeded weight vectors (six sessions:
// averaging over weightings keeps the simulated cost of a pass steady from
// seed to seed), run bench_churn's six-step update schedule (two re-weights
// of the heaviest edges, a swap of the two lightest weights, an edge
// removal, its re-insertion with one new vertex attached, and that vertex's
// removal) three times each: 108 updates per pass. Every update is
// followed by an mst, a probe Aggregate over a partition away from the
// edits, and an sssp.approx; every schedule cycle ends with a
// Session::save -> Session::restore round trip. Structural edits
// invalidate fragment-partition cache entries, so cache inserts and
// invalidation, construction misses, SolverCore::update and snapshot I/O
// do work here and nowhere else.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <vector>

#include "congest/session.hpp"
#include "core/partition.hpp"
#include "core/shortcut_engine.hpp"
#include "instances.hpp"
#include "probes.hpp"
#include "solve.hpp"

namespace perfbench {
namespace {

using namespace mns;

constexpr int kWeightings = 3;
constexpr int kCycles = 3;
constexpr int kSteps = 6;

class Churn final : public Workload {
 public:
  explicit Churn(const RunContext& ctx) : ctx_(ctx) {}

  double setup() override {
    bases_.clear();
    const Clock::time_point t0 = Clock::now();
    std::vector<Instance> insts;
    for (int k = 0; k < kWeightings; ++k) {
      insts.push_back(planar_grid(32, 32, mix_seed(ctx_.seed, 60 + 2 * k)));
      insts.push_back(apexed_chain(4, mix_seed(ctx_.seed, 61 + 2 * k)));
    }
    const double gen_ms = seconds_since(t0) * 1e3;
    for (std::size_t i = 0; i < insts.size(); ++i) {
      Base b;
      b.inst = std::move(insts[i]);
      const Graph& g = b.inst.graph;
      const VertexId n = g.num_vertices();
      Rng rng(mix_seed(ctx_.seed, 70 + i));
      // The toggled edge lives far from the probe: in the planar grid's
      // last row, or in the chain's last bag (never bag 0).
      if (b.inst.family == "planar") {
        const VertexId side = 32;
        b.toggle_u = (side - 1) * side +
                     static_cast<VertexId>(rng() % (side - 1));
        b.toggle_v = b.toggle_u + 1;
      } else {
        const CliqueSumDecomposition& d =
            std::get<CliqueSumCertificate>(b.inst.cert).decomposition;
        const auto edges = d.bag_edges(d.num_bags() - 1);
        const EdgeId e = edges[rng() % edges.size()];
        b.toggle_u = g.edge(e).u;
        b.toggle_v = g.edge(e).v;
      }
      // Row-0 arcs: connected, and untouched by every edit.
      const VertexId row = b.inst.family == "planar" ? 32 : 16;
      const Partition p = ring_sectors(n, 0, row, 2);
      b.probe.assign(p.part_of_all().begin(), p.part_of_all().end());
      b.source = end_vertex(b.inst, rng());
      b.snapshot = ctx_.scratch_dir + "/churn-base-" + std::to_string(i) +
                   ".snapshot";
      b.cycle_snapshot = ctx_.scratch_dir + "/churn-cycle-" +
                         std::to_string(i) + ".snapshot";
      // Warm-up: a long-lived session has paid construction before churn
      // arrives. Every pass restarts from this warm snapshot.
      congest::SessionConfig cfg;
      cfg.tree = center_tree_factory(1);
      congest::Session s(g, b.inst.cert, std::move(cfg));
      (void)s.solve(congest::Mst{b.inst.weights});
      (void)s.solve(congest::Aggregate{Partition(b.probe), ramp_values(n)});
      (void)s.solve("sssp.approx",
                    approx_sssp_params(g, b.inst.weights, b.source));
      s.save(b.snapshot, b.inst.weights);
      bases_.push_back(std::move(b));
    }
    return gen_ms;
  }

  PassStats run_pass(const std::vector<SpanLog*>& logs,
                     Outcome& outcome) override {
    SpanLog* log = logs.empty() ? nullptr : logs[0];
    PassStats st;
    structural_ms_.clear();
    kept_ = invalidated_ = subpaths_ = 0;
    last_reports_.clear();
    for (const Base& b : bases_) run_base(b, log, st, outcome);
    return st;
  }

  void layer_probes(SpanLog& log, Metrics& m, Outcome& outcome) override {
    const double updates = static_cast<double>(structural_ms_.size());
    m.set("core.update_ms", median(structural_ms_), "ms",
          "Session::update, median of " +
              std::to_string(structural_ms_.size()) +
              " structural updates of the last traced pass");
    m.set("core.entries_kept", static_cast<double>(kept_) / updates, "count",
          "per structural update");
    m.set("core.entries_invalidated",
          static_cast<double>(invalidated_) / updates, "count",
          "per structural update");
    m.set("core.subpaths_rebuilt", static_cast<double>(subpaths_) / updates,
          "count", "per structural update");
    const Base& b = bases_.front();
    congest::Session s = congest::Session::restore(b.snapshot);
    const ProbeTarget target{s.core_ptr(), &b.inst, ctx_};
    probe_layers(target, target, last_reports_, log, m, outcome);
  }

 private:
  struct Base {
    Instance inst;
    VertexId toggle_u = kInvalidVertex;
    VertexId toggle_v = kInvalidVertex;
    std::vector<PartId> probe;
    VertexId source = 0;
    std::string snapshot;        ///< the warm starting state
    std::string cycle_snapshot;  ///< the per-cycle round trip
  };

  /// bench_churn's step `u` of the schedule, against the live state.
  static UpdateBatch schedule_step(int u, const congest::Session& s,
                                   const std::vector<Weight>& w,
                                   const Base& b, VertexId churn_vertex) {
    UpdateBatch batch;
    if (u == 0 || u == 3) {
      // Re-weight the 4 heaviest edges to fresh, larger, distinct values.
      std::vector<EdgeId> ids(w.size());
      std::iota(ids.begin(), ids.end(), 0);
      std::partial_sort(ids.begin(), ids.begin() + 4, ids.end(),
                        [&](EdgeId x, EdgeId y) {
                          return w[static_cast<std::size_t>(x)] >
                                 w[static_cast<std::size_t>(y)];
                        });
      const Weight top = w[static_cast<std::size_t>(ids[0])];
      for (int i = 0; i < 4; ++i)
        batch.weight_changes.push_back(
            {ids[static_cast<std::size_t>(i)], top + 1 + i});
    } else if (u == 1) {
      // Swap the two lightest weights.
      std::vector<EdgeId> ids(w.size());
      std::iota(ids.begin(), ids.end(), 0);
      std::partial_sort(ids.begin(), ids.begin() + 2, ids.end(),
                        [&](EdgeId x, EdgeId y) {
                          return w[static_cast<std::size_t>(x)] <
                                 w[static_cast<std::size_t>(y)];
                        });
      batch.weight_changes.push_back(
          {ids[0], w[static_cast<std::size_t>(ids[1])]});
      batch.weight_changes.push_back(
          {ids[1], w[static_cast<std::size_t>(ids[0])]});
    } else if (u == 2) {
      batch.remove_edges.push_back(s.graph().find_edge(b.toggle_u, b.toggle_v));
    } else if (u == 4) {
      // Re-insert the toggled edge and attach one new vertex to its ends.
      const Weight heavy = *std::max_element(w.begin(), w.end()) + 10;
      const VertexId ext = s.graph().num_vertices();
      batch.insert_edges.push_back({b.toggle_u, b.toggle_v, heavy});
      batch.insert_edges.push_back({b.toggle_u, ext, heavy + 1});
      batch.insert_edges.push_back({b.toggle_v, ext, heavy + 2});
      batch.add_vertices = 1;
    } else {
      batch.remove_vertices.push_back(churn_vertex);
    }
    return batch;
  }

  void run_base(const Base& b, SpanLog* log, PassStats& st, Outcome& outcome) {
    // Session is neither copyable nor movable; a prvalue initializes it.
    std::unique_ptr<congest::Session> session(
        new congest::Session(congest::Session::restore(b.snapshot)));
    std::vector<Weight> weights = b.inst.weights;
    std::vector<PartId> probe = b.probe;
    VertexId churn_vertex = kInvalidVertex;
    const std::string label = "churn " + b.inst.family;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      for (int u = 0; u < kSteps; ++u) {
        const UpdateBatch batch =
            schedule_step(u, *session, weights, b, churn_vertex);
        const long long op = ++op_;
        Scope step(log, "churn.step", op);
        SpeedClock& clock = SpeedClock::local();
        clock.start();
        congest::UpdateStats stats;
        {
          Scope scope(log, batch.structural() ? "core.update/structural"
                                              : "core.update/weights",
                      op);
          stats = session->update(batch, &weights);
        }
        OpTime step_time = clock.stop();
        if (batch.structural()) {
          structural_ms_.push_back(step_time.ms);
          kept_ += static_cast<long long>(stats.entries_kept);
          invalidated_ += static_cast<long long>(stats.entries_invalidated);
          subpaths_ += static_cast<long long>(stats.subpaths_rebuilt);
          std::vector<PartId> moved(
              static_cast<std::size_t>(session->graph().num_vertices()),
              kNoPart);
          for (std::size_t v = 0; v < probe.size(); ++v)
            if (const VertexId nv = stats.vertex_map[v]; nv != kInvalidVertex)
              moved[static_cast<std::size_t>(nv)] = probe[v];
          probe = std::move(moved);
        }
        if (u == 4) churn_vertex = session->graph().num_vertices() - 1;

        const Graph& g = session->graph();
        SolveSpec specs[3] = {
            {"mst", {}, {}, {}},
            {"aggregate", {}, probe, ramp_values(g.num_vertices())},
            {"sssp.approx", approx_sssp_params(g, weights, b.source), {}, {}}};
        specs[0].params.weights = weights;
        for (const SolveSpec& spec : specs) {
          TimedReport t = timed_solve(*session, spec, log, op);
          step_time += t.time;
          add_report(st, t.report);
          check_solve(g, spec, t.report, outcome, label);
          if (cycle == 0) last_reports_.push_back(std::move(t.report));
        }
        st.ops.push_back(step_time);
      }
      // The cycle's snapshot round trip; the restored session carries on.
      SpeedClock& clock = SpeedClock::local();
      clock.start();
      {
        Scope scope(log, "io.snapshot_save", op_);
        session->save(b.cycle_snapshot, weights);
      }
      {
        Scope scope(log, "io.snapshot_restore", op_);
        session.reset(
            new congest::Session(congest::Session::restore(b.cycle_snapshot)));
      }
      st.other.push_back(clock.stop());
    }
    std::filesystem::remove(b.cycle_snapshot);
  }

  RunContext ctx_;
  std::vector<Base> bases_;
  std::vector<congest::RunReport> last_reports_;
  std::vector<double> structural_ms_;
  long long kept_ = 0, invalidated_ = 0, subpaths_ = 0;
  long long op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_churn(const RunContext& ctx) {
  return std::make_unique<Churn>(ctx);
}

}  // namespace perfbench
