#include "probes.hpp"

#include <cmath>
#include <filesystem>

#include "congest/aggregation.hpp"
#include "congest/session.hpp"
#include "congest/simulator.hpp"
#include "core/ldd.hpp"
#include "core/partition.hpp"
#include "core/shortcut_engine.hpp"
#include "io/report_json.hpp"
#include "serve/query_server.hpp"
#include "solve.hpp"

namespace perfbench {
namespace {

using namespace mns;

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// Median duration in ms of `reps` traced calls of `fn`.
template <typename Fn>
double median_ms(SpanLog& log, const char* span, int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    Scope scope(&log, span);
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(ms_since(t0));
  }
  return median(ms);
}

void probe_core(const ProbeTarget& t, const Partition& parts, SpanLog& log,
                Metrics& m) {
  const congest::SolverCore& core = *t.core;
  const Graph& g = core.graph();
  m.set("core.tree_ms",
        median_ms(log, "core.tree", 3,
                  [&] { (void)center_tree_factory(1)(g); }),
        "ms", "center BFS tree, median of 3");
  m.set("core.ldd_ms",
        median_ms(log, "core.ldd", 3,
                  [&] { (void)ldd_decompose(g, core.ldd_options()); }),
        "ms", "ldd_decompose, median of 3");
  m.set("core.acquire_cold_ms",
        median_ms(log, "core.acquire_cold", 3,
                  [&] { (void)core.acquire(parts, false); }),
        "ms", "acquire(probe partition, use_cache=false), median of 3");
  (void)core.acquire(parts, true);  // resident from here on
  m.set("core.acquire_hit_us",
        1e3 * median_ms(log, "core.acquire_hit", 200,
                        [&] { (void)core.acquire(parts, true); }),
        "us", "acquire(probe partition) cache hit, median of 200");
}

void probe_congest(const ProbeTarget& t, const Partition& parts,
                   SpanLog& log, Metrics& m, Outcome& outcome) {
  const Graph& g = t.core->graph();
  const std::shared_ptr<const Shortcut> sc =
      t.core->acquire(parts, true).shortcut;
  std::size_t participations = 0;
  m.set("congest.agg_setup_us",
        1e3 * median_ms(log, "congest.agg_setup", 10,
                        [&] {
                          congest::PartwiseAggregator agg(g, parts, *sc);
                          participations = agg.participations();
                        }),
        "us",
        "PartwiseAggregator built and dropped on the probe partition, "
        "median of 10");
  m.set("congest.participations", static_cast<double>(participations),
        "count", "(node, part) pairs of the probe partition");

  congest::PartwiseAggregator agg(g, parts, *sc);
  const std::vector<congest::AggValue> values = ramp_values(g.num_vertices());
  std::vector<double> agg_ns;
  for (int i = 0; i < 3; ++i) {
    congest::Simulator sim(g);
    Scope scope(&log, "congest.aggregate_min");
    const Clock::time_point t0 = Clock::now();
    congest::AggregationResult res = agg.aggregate_min(sim, values);
    const double ns = ms_since(t0) * 1e6;
    scope.set_count(sim.messages_sent());
    agg_ns.push_back(ns /
                     static_cast<double>(std::max(1LL, sim.messages_sent())));
    SolveSpec spec{"aggregate", {}, {}, values};
    spec.part_of.assign(parts.part_of_all().begin(), parts.part_of_all().end());
    congest::RunReport r;
    r.payload = congest::AggregatePayload{std::move(res.min_of_part)};
    check_solve(g, spec, r, outcome, "probe aggregate_min");
  }
  m.set("congest.aggregate_ns_per_message", median(agg_ns), "ns",
        "aggregate_min on a fresh Simulator, median of 3");

  // A raw flood: every vertex sends on every incident edge, every round.
  std::vector<double> flood_ns;
  for (int rep = 0; rep < 3; ++rep) {
    congest::Simulator sim(g);
    Scope scope(&log, "congest.sim_flood");
    const Clock::time_point t0 = Clock::now();
    for (int round = 0; round < 20; ++round) {
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        for (const EdgeId e : g.incident_edges(v))
          sim.send(v, e, congest::Message{round, v, round});
      sim.finish_round();
    }
    const double ns = ms_since(t0) * 1e6;
    scope.set_count(sim.messages_sent());
    flood_ns.push_back(ns / static_cast<double>(sim.messages_sent()));
  }
  m.set("congest.sim_ns_per_message", median(flood_ns), "ns",
        "Simulator::send/finish_round flood, 20 rounds, median of 3");
}

void probe_io(const ProbeTarget& t,
              const std::vector<congest::RunReport>& reports, SpanLog& log,
              Metrics& m, Outcome& outcome) {
  std::vector<double> us, bytes;
  for (const congest::RunReport& r : reports) {
    Scope scope(&log, "io.report_json");
    const Clock::time_point t0 = Clock::now();
    const std::string json = io::run_report_to_json(r);
    us.push_back(ms_since(t0) * 1e3);
    bytes.push_back(static_cast<double>(json.size()));
    scope.set_count(static_cast<long long>(json.size()));
  }
  m.set("io.report_json_us", median(us), "us",
        "run_report_to_json, median over " + std::to_string(us.size()) +
            " reports of the last pass");
  m.set("io.report_json_bytes", median(bytes), "bytes",
        "median rendered report size");

  const std::string path = t.ctx.scratch_dir + "/probe.snapshot";
  congest::Session session(t.core);
  m.set("io.snapshot_save_ms",
        median_ms(log, "io.snapshot_save", 3,
                  [&] { session.save(path, t.inst->weights); }),
        "ms", "Session::save of the warm core, median of 3");
  const std::size_t cached = session.cache_size();
  m.set("io.snapshot_restore_ms",
        median_ms(log, "io.snapshot_restore", 3,
                  [&] {
                    congest::Session back = congest::Session::restore(path);
                    outcome.check(back.cache_size() == cached,
                                  "probe snapshot restore keeps the cache");
                  }),
        "ms", "Session::restore, median of 3");
  m.set("io.snapshot_bytes",
        static_cast<double>(std::filesystem::file_size(path)), "bytes",
        std::to_string(cached) + " cached shortcuts");
  std::filesystem::remove(path);
}

void probe_update(const ProbeTarget& t, SpanLog& log, Metrics& m,
                  Outcome& outcome) {
  const congest::SolverCore& core = *t.core;
  // Remove one seeded tree edge: a structural batch that forces the tree
  // patch and invalidates the partitions around it.
  const VertexId n = core.graph().num_vertices();
  Rng rng(mix_seed(t.ctx.seed, 91));
  VertexId v = static_cast<VertexId>(rng() % static_cast<std::uint64_t>(n));
  if (v == core.tree().root()) v = (v + 1) % n;
  UpdateBatch batch;
  batch.remove_edges.push_back(core.tree().parent_edge(v));
  congest::UpdateStats stats;
  const double ms = median_ms(log, "core.update/structural", 3, [&] {
    stats = {};
    const auto next = core.update(batch, stats);
    outcome.check(next != nullptr, "probe structural update");
  });
  m.set("core.update_ms", ms, "ms",
        "SolverCore::update removing one tree edge, median of 3");
  m.set("core.entries_kept", static_cast<double>(stats.entries_kept), "count",
        "per structural update");
  m.set("core.entries_invalidated",
        static_cast<double>(stats.entries_invalidated), "count",
        "per structural update");
  m.set("core.subpaths_rebuilt", static_cast<double>(stats.subpaths_rebuilt),
        "count", "per structural update");
}

void probe_serve(const ProbeTarget& t, SpanLog& log, Metrics& m,
                 Outcome& outcome) {
  const Graph& g = t.core->graph();
  std::vector<serve::Request> unit(3);
  unit[0].workload = "mst";
  unit[0].params.weights = t.inst->weights;
  unit[1].workload = "mincut";
  unit[1].params.weights = t.inst->weights;
  unit[1].params.num_trees = 4;
  unit[2].workload = "sssp.approx";
  unit[2].params = approx_sssp_params(g, t.inst->weights, 0);
  serve::QueryServer server(t.core);
  (void)server.warm(unit);
  long long misses = 0;
  for (int rep = 0; rep < 3; ++rep)
    for (const serve::Request& req : unit) {
      Scope scope(&log, "serve.request/" + req.workload);
      const std::vector<serve::Response> out = server.serve({req});
      outcome.check(out.size() == 1 && out[0].ok(),
                    "probe serve " + req.workload);
      if (!out.empty()) misses += out[0].report.cache_misses;
    }
  m.set("serve.cache_misses", static_cast<double>(misses), "count",
        "post-warm probe requests");
}

/// One solve of every kind the workload's own passes did not issue.
void probe_catalogue(const ProbeTarget& t, const Partition& parts,
                     SpanLog& log, const Metrics& m, Outcome& outcome) {
  const Graph& g = t.core->graph();
  congest::SolveHandle handle(t.core);
  long long op = 1'000'000;
  for (const std::string& kind : solve_kinds()) {
    if (m.has("congest.solve_ms." + kind)) continue;
    SolveSpec spec{kind, {}, {}, {}};
    spec.params.weights = t.inst->weights;
    spec.params.num_trees = 4;
    if (kind == "sssp.approx")
      spec.params = approx_sssp_params(g, t.inst->weights, 0);
    if (kind == "aggregate") {
      spec.part_of.assign(parts.part_of_all().begin(),
                          parts.part_of_all().end());
      spec.values = ramp_values(g.num_vertices());
    }
    TimedReport r = timed_solve(handle, spec, &log, ++op);
    check_solve(g, spec, r.report, outcome, "probe");
  }
}

/// The fixed probe partition of a graph: seeded Voronoi cells, sqrt(n) of
/// them.
Partition probe_partition(const Graph& g, std::uint64_t seed) {
  Rng rng(mix_seed(seed, 90));
  const int k = std::max(
      2, static_cast<int>(std::sqrt(static_cast<double>(g.num_vertices()))));
  return voronoi_partition(g, k, rng);
}

}  // namespace

void metrics_from_spans(const std::map<std::string, SpanTotals>& totals,
                        double passes, Metrics& m) {
  auto find = [&](const std::string& name) -> const SpanTotals* {
    const auto it = totals.find(name);
    return it == totals.end() ? nullptr : &it->second;
  };
  for (const std::string& kind : solve_kinds()) {
    const std::string ms_name = "congest.solve_ms." + kind;
    if (const SpanTotals* s = find("congest.solve/" + kind);
        s && !m.has(ms_name)) {
      m.set(ms_name, median(s->durations_ms), "ms",
            "median of " + std::to_string(s->calls) + " calls");
      m.set("congest.ns_per_message." + kind,
            s->count > 0 ? s->total_ms * 1e6 / static_cast<double>(s->count)
                         : 0.0,
            "ns", std::to_string(s->count) + " messages");
    }
    const std::string req_name = "serve.request_ms." + kind;
    if (const SpanTotals* s = find("serve.request/" + kind);
        s && !m.has(req_name))
      m.set(req_name, median(s->durations_ms), "ms",
            "median of " + std::to_string(s->calls) + " requests");
  }
  for (const std::string& stage : phase_stages()) {
    const std::string name = "congest.phase_ms." + stage;
    if (const SpanTotals* s = find("congest.phase/" + stage);
        s && !m.has(name))
      m.set(name, s->total_ms / passes, "ms",
            std::to_string(s->calls) + " phases over " +
                std::to_string(static_cast<int>(passes)) + " pass(es)");
  }
}

void probe_layers(const ProbeTarget& t, const ProbeTarget& fill,
                  const std::vector<congest::RunReport>& reports,
                  SpanLog& log, Metrics& m, Outcome& outcome) {
  const Partition parts = probe_partition(t.core->graph(), t.ctx.seed);
  probe_core(t, parts, log, m);
  probe_congest(t, parts, log, m, outcome);
  probe_io(t, reports, log, m, outcome);
  if (!m.has("core.update_ms")) probe_update(t, log, m, outcome);
  if (!m.has("serve.cache_misses")) probe_serve(fill, log, m, outcome);
  probe_catalogue(fill, probe_partition(fill.core->graph(), fill.ctx.seed),
                  log, m, outcome);
  metrics_from_spans(summarize({&log}), 1.0, m);
}

}  // namespace perfbench
