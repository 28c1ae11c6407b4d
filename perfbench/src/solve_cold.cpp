// solve-cold: one cold Session per bench_scale family at n ~ 2^12 (the
// 64x64 planar grid and the 16-bag apexed clique-sum chain), each running
// mst, sssp.approx, sssp.exact, domset, mis and bfs. No serving, no
// updates. Every pass starts from an empty shortcut cache, so shortcut
// construction and the aggregation programs do the work; the four
// shortcut-free solves isolate the Simulator.
#include <memory>
#include <vector>

#include "congest/session.hpp"
#include "core/shortcut_engine.hpp"
#include "instances.hpp"
#include "probes.hpp"
#include "solve.hpp"

namespace perfbench {
namespace {

using namespace mns;

class SolveCold final : public Workload {
 public:
  explicit SolveCold(const RunContext& ctx) : ctx_(ctx) {}

  double setup() override {
    shapes_.clear();
    const Clock::time_point t0 = Clock::now();
    std::vector<Instance> insts;
    insts.push_back(planar_grid(64, 64, mix_seed(ctx_.seed, 10)));
    insts.push_back(apexed_chain(16, mix_seed(ctx_.seed, 11)));
    const double gen_ms = seconds_since(t0) * 1e3;
    for (std::size_t i = 0; i < insts.size(); ++i) {
      Shape s;
      s.inst = std::move(insts[i]);
      congest::SessionConfig cfg;
      cfg.tree = center_tree_factory(1);
      s.session = std::make_unique<congest::Session>(s.inst.graph, s.inst.cert,
                                                     std::move(cfg));
      (void)s.session->tree();  // the core's tree is set-up, not pass work
      s.specs = specs_for(s.inst, mix_seed(ctx_.seed, 20 + i));
      shapes_.push_back(std::move(s));
    }
    return gen_ms;
  }

  PassStats run_pass(const std::vector<SpanLog*>& logs,
                     Outcome& outcome) override {
    SpanLog* log = logs.empty() ? nullptr : logs[0];
    PassStats st;
    last_reports_.clear();
    for (Shape& s : shapes_) {
      s.session->clear_cache();  // cold: every partition is built afresh
      for (const SolveSpec& spec : s.specs) {
        TimedReport t = timed_solve(*s.session, spec, log, ++op_);
        st.ops.push_back(t.time);
        add_report(st, t.report);
        check_solve(s.inst.graph, spec, t.report, outcome,
                    "solve-cold " + s.inst.family);
        last_reports_.push_back(std::move(t.report));
      }
    }
    return st;
  }

  void layer_probes(SpanLog& log, Metrics& m, Outcome& outcome) override {
    const Shape& s = shapes_.front();
    // Solves this workload never issues (mincut, aggregate, serving) are
    // probed on a 32x32 grid, small enough for the exact min-cut oracle.
    const Instance grid = planar_grid(32, 32, mix_seed(ctx_.seed, 12));
    congest::CoreConfig cc;
    cc.tree = center_tree_factory(1);
    auto grid_core = std::make_shared<const congest::SolverCore>(
        grid.graph, grid.cert, std::move(cc));
    probe_layers({s.session->core_ptr(), &s.inst, ctx_},
                 {grid_core, &grid, ctx_}, last_reports_, log, m, outcome);
  }

 private:
  struct Shape {
    Instance inst;
    std::unique_ptr<congest::Session> session;
    std::vector<SolveSpec> specs;
  };

  static std::vector<SolveSpec> specs_for(const Instance& inst,
                                          std::uint64_t seed) {
    Rng rng(seed);
    std::vector<SolveSpec> specs;
    // The returned reference is used before the next add() reallocates.
    auto add = [&](const char* kind) -> congest::WorkloadParams& {
      specs.push_back({kind, {}, {}, {}});
      return specs.back().params;
    };
    add("mst").weights = inst.weights;
    add("sssp.approx") = approx_sssp_params(inst.graph, inst.weights,
                                            end_vertex(inst, rng()));
    congest::WorkloadParams& exact = add("sssp.exact");
    exact.weights = inst.weights;
    exact.source = end_vertex(inst, rng());
    add("domset");
    add("mis").seed = rng();
    add("bfs").source = end_vertex(inst, rng());
    return specs;
  }

  RunContext ctx_;
  std::vector<Shape> shapes_;
  std::vector<congest::RunReport> last_reports_;
  long long op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_solve_cold(const RunContext& ctx) {
  return std::make_unique<SolveCold>(ctx);
}

}  // namespace perfbench
