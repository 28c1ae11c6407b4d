// serve-warm: a closed loop of 2 clients over the four bench_serve shapes.
// Each client sends its next request only after the previous reply has
// arrived and been rendered to JSON (as `mnsctl serve` does). All clients
// share one warm SolverCore per family, each through its own QueryServer,
// so every request is a cache hit: aggregator setup, the shared-cache lock
// and serialization carry the load, not construction.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/shortcut_engine.hpp"
#include "instances.hpp"
#include "io/report_json.hpp"
#include "probes.hpp"
#include "serve/query_server.hpp"
#include "solve.hpp"

namespace perfbench {
namespace {

using namespace mns;

constexpr int kClients = 2;
constexpr std::size_t kMinRequests = 1000;

class ServeWarm final : public Workload {
 public:
  explicit ServeWarm(const RunContext& ctx) : ctx_(ctx) {}

  int clients() const override { return kClients; }

  double setup() override {
    servers_.clear();
    families_.clear();
    const Clock::time_point t0 = Clock::now();
    std::vector<Instance> insts = serving_instances();
    const double gen_ms = seconds_since(t0) * 1e3;
    for (std::size_t f = 0; f < insts.size(); ++f) {
      Family fam;
      fam.inst = std::move(insts[f]);
      congest::CoreConfig cc;
      cc.tree = center_tree_factory(1);
      fam.core = std::make_shared<const congest::SolverCore>(
          fam.inst.graph, fam.inst.cert, std::move(cc));
      fam.unit = unit_mix(fam.inst, mix_seed(ctx_.seed, 40 + f));
      // Warm-then-serve: the first sequential pass pays every
      // construction; the second is the reference every reply must match.
      serve::QueryServer warmer(fam.core);
      (void)warmer.warm(fam.unit);
      fam.reference = warmer.warm(fam.unit);
      families_.push_back(std::move(fam));
    }
    for (int c = 0; c < kClients; ++c) {
      servers_.emplace_back();
      for (const Family& fam : families_)
        servers_.back().push_back(
            std::make_unique<serve::QueryServer>(fam.core));
    }
    // The request stream: the unit mixes repeated to >= kMinRequests, in
    // seeded order.
    order_.clear();
    while (order_.size() < kMinRequests)
      for (std::size_t f = 0; f < families_.size(); ++f)
        for (std::size_t u = 0; u < families_[f].unit.size(); ++u)
          order_.push_back({f, u});
    Rng rng(mix_seed(ctx_.seed, 50));
    std::shuffle(order_.begin(), order_.end(), rng);
    return gen_ms;
  }

  /// Each sequential reference is oracle-checked once; the replies of every
  /// pass are then compared with it.
  void prepare_checks(Outcome& outcome) override {
    for (const Family& fam : families_)
      for (std::size_t u = 0; u < fam.unit.size(); ++u) {
        const serve::Response& ref = fam.reference[u];
        const std::string label = "serve-warm reference " + fam.inst.family;
        outcome.check(ref.ok() && ref.report.cache_misses == 0 &&
                          ref.report.charged_construction_rounds == 0,
                      label + " is warm");
        if (!ref.ok()) continue;
        SolveSpec spec{fam.unit[u].workload, fam.unit[u].params, {}, {}};
        if (spec.kind == "sssp.approx") spec.params.wavefront_seeds = false;
        check_solve(fam.inst.graph, spec, ref.report, outcome, label);
      }
  }

  PassStats run_pass(const std::vector<SpanLog*>& logs,
                     Outcome& outcome) override {
    const std::size_t n = order_.size();
    Replies r(n);
    std::atomic<std::size_t> next{0};
    std::atomic<long long> client_errors{0};
    auto client = [&](int c) {
      SpanLog* log = logs.empty() ? nullptr : logs[static_cast<std::size_t>(c)];
      try {
        for (std::size_t i; (i = next.fetch_add(1)) < n;)
          serve_one(c, i, log, r);
      } catch (...) {  // its unanswered requests fail their checks below
        client_errors.fetch_add(1);
      }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
    PassStats st;
    st.ops = std::move(r.times);

    outcome.check(client_errors.load() == 0, "serve-warm client threw");
    misses_ = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto [f, u] = order_[i];
      const serve::Response& ref = families_[f].reference[u];
      const serve::Response& got = r.replies[i];
      outcome.check(got.ok() && r.json_bytes[i] > 0 &&
                        io::run_reports_identical(got.report, ref.report) &&
                        got.report.charged_construction_rounds == 0,
                    "serve-warm reply " + families_[f].inst.family + " " +
                        families_[f].unit[u].workload);
      add_report(st, got.report);
      misses_ += got.report.cache_misses;
    }
    last_reports_.clear();
    for (std::size_t i = 0; i < std::min<std::size_t>(n, 64); ++i)
      last_reports_.push_back(r.replies[i].report);
    return st;
  }

  void layer_probes(SpanLog& log, Metrics& m, Outcome& outcome) override {
    m.set("serve.cache_misses", static_cast<double>(misses_), "count",
          "over the last traced pass");
    const Family& fam = families_.front();
    probe_layers({fam.core, &fam.inst, ctx_}, {fam.core, &fam.inst, ctx_},
                 last_reports_, log, m, outcome);
  }

 private:
  /// One pass's replies, indexed by request.
  struct Replies {
    explicit Replies(std::size_t n)
        : replies(n), times(n), json_bytes(n) {}
    std::vector<serve::Response> replies;
    std::vector<OpTime> times;
    std::vector<std::size_t> json_bytes;
  };

  /// Client `c` sends request `i`, waits for the reply and renders it.
  void serve_one(int c, std::size_t i, SpanLog* log, Replies& r) {
    const auto [f, u] = order_[i];
    const serve::Request& base = families_[f].unit[u];
    serve::QueryServer& server = *servers_[static_cast<std::size_t>(c)][f];
    const auto op = static_cast<long long>(i);
    SpeedClock& clock = SpeedClock::local();
    clock.start();
    {
      Scope scope(log, "serve.request/" + base.workload, op);
      std::vector<serve::Response> out =
          log ? server.serve({with_phase_marks(base, log)})
              : server.serve({base});
      std::string json;
      {
        Scope render(log, "io.response_json", op);
        json = serve::response_to_json(out.front());
        render.set_count(static_cast<long long>(json.size()));
      }
      r.json_bytes[i] = json.size();
      r.replies[i] = std::move(out.front());
      scope.set_count(r.replies[i].report.messages);
    }
    r.times[i] = clock.stop();
  }

  struct Family {
    Instance inst;
    std::shared_ptr<const congest::SolverCore> core;
    std::vector<serve::Request> unit;
    std::vector<serve::Response> reference;
  };

  /// bench_serve's mix: an mst, a 4-tree mincut and 8 sssp.approx sources
  /// spread n/8 apart from a seeded offset.
  static std::vector<serve::Request> unit_mix(const Instance& inst,
                                              std::uint64_t seed) {
    std::vector<serve::Request> unit(2);
    unit[0].workload = "mst";
    unit[0].params.weights = inst.weights;
    unit[1].workload = "mincut";
    unit[1].params.weights = inst.weights;
    unit[1].params.num_trees = 4;
    const VertexId n = inst.graph.num_vertices();
    const VertexId stride = n / 8;
    const auto offset =
        static_cast<VertexId>(seed % static_cast<std::uint64_t>(stride));
    for (VertexId k = 0; k < 8; ++k) {
      serve::Request sssp;
      sssp.workload = "sssp.approx";
      sssp.params.weights = inst.weights;
      sssp.params.source = offset + k * stride;
      unit.push_back(std::move(sssp));
    }
    return unit;
  }

  /// Traced run only: a copy of the request that records phase spans into
  /// the client's log.
  static serve::Request with_phase_marks(const serve::Request& base,
                                         SpanLog* log) {
    serve::Request r = base;
    r.options.trace = phase_marks(log);
    return r;
  }

  RunContext ctx_;
  std::vector<Family> families_;
  std::vector<std::vector<std::unique_ptr<serve::QueryServer>>> servers_;
  std::vector<std::pair<std::size_t, std::size_t>> order_;
  std::vector<congest::RunReport> last_reports_;
  long long misses_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_warm(const RunContext& ctx) {
  return std::make_unique<ServeWarm>(ctx);
}

}  // namespace perfbench
