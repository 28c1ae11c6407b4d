// E17 (the vertex-parallel round engine, DESIGN.md §7): wall-clock scaling
// of the sharded simulator at threads in {1, 2, 4, 8} on all four
// certificate families (planar, treewidth, apex, clique-sum), driving the
// two round-heaviest workloads (MST and (1+eps) SSSP) through
// congest::Session at each width.
//
// The headline assert is NOT the speedup — it is PARITY: at every width,
// rounds, messages, charged construction, phases and full payloads must be
// bit-identical to the threads=1 sequential oracle (parallelism may only
// move wall clock). The harness exits nonzero on any deviation, so CI
// catches determinism regressions on every run.
//
// Speedup is reported per row (wall_ms, speedup vs threads=1) into
// BENCH_parallel_scaling.json together with threads and
// hardware_concurrency; interpret it against the row's hardware context —
// on a 1-core container every width necessarily measures ~1x, which is why
// the speedup is recorded, not asserted, machine-independently.
//
// Set MNS_BENCH_SMOKE=1 to run the smallest instance per family (CI).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_instances.hpp"
#include "bench_util.hpp"
#include "congest/session.hpp"
#include "gen/apex.hpp"

using namespace mns;

namespace {

struct Instance {
  std::string family;
  Graph graph;
  std::vector<Weight> weights;
  StructuralCertificate cert;
};

std::vector<Instance> instances(bool smoke) {
  std::vector<Instance> out;
  {
    const int side = smoke ? 16 : 48;
    Graph g = gen::grid(side, side).graph();
    Rng rng(static_cast<unsigned>(side));
    std::vector<Weight> w = bench::dfs_light_weights(g, rng);
    out.push_back({"planar", std::move(g), std::move(w),
                   greedy_certificate()});
  }
  {
    const VertexId n = smoke ? 256 : 4096;
    Rng rng(static_cast<unsigned>(n));
    bench::HubbedKPath kt = bench::hubbed_kpath(n, 3);
    std::vector<Weight> w = bench::spine_light_weights(kt.graph, n, rng);
    out.push_back({"treewidth", std::move(kt.graph), std::move(w),
                   treewidth_certificate(std::move(kt.decomposition))});
  }
  {
    const int side = smoke ? 16 : 48;
    Rng rng(static_cast<unsigned>(100 + side));
    gen::ApexResult ar =
        gen::add_apices(gen::grid(side, side).graph(), 1, 0.10, rng);
    std::vector<Weight> w = bench::dfs_light_weights(ar.graph, rng);
    out.push_back({"apex", std::move(ar.graph), std::move(w),
                   apex_certificate(ar.apices)});
  }
  {
    const int bags = smoke ? 4 : 16;
    Rng rng(static_cast<unsigned>(bags));
    bench::ApexChain chain = bench::apexed_chain_cliquesum(bags, rng);
    StructuralCertificate cert = bench::apex_chain_certificate(chain);
    out.push_back({"cliquesum", std::move(chain.graph),
                   std::move(chain.weights), std::move(cert)});
  }
  return out;
}

struct Oracle {
  congest::RunReport mst;
  congest::RunReport sssp;
};

bool same_run(const congest::RunReport& a, const congest::RunReport& b) {
  return a.rounds == b.rounds && a.messages == b.messages &&
         a.charged_construction_rounds == b.charged_construction_rounds &&
         a.phases == b.phases && a.aggregations == b.aggregations;
}

int failures = 0;

void check(bool ok, const char* what, const std::string& family, int threads) {
  if (ok) return;
  ++failures;
  std::printf("  PARITY VIOLATION [%s, threads=%d]: %s\n", family.c_str(),
              threads, what);
}

}  // namespace

int main() {
  const bool smoke = std::getenv("MNS_BENCH_SMOKE") != nullptr;
  bench::JsonReport report("parallel_scaling");
  bench::header(
      "E17: vertex-parallel round engine — wall-clock scaling with "
      "bit-identical rounds/messages/results (DESIGN.md §7)");
  std::printf("hardware_concurrency = %lld\n",
              bench::JsonReport::hardware_concurrency());

  for (Instance& inst : instances(smoke)) {
    const VertexId n = inst.graph.num_vertices();
    std::printf("\n%-10s n=%-6d m=%d\n", inst.family.c_str(), n,
                inst.graph.num_edges());
    Oracle oracle;
    double base_mst_ms = 0, base_sssp_ms = 0;
    for (int threads : {1, 2, 4, 8}) {
      congest::SessionConfig cfg;
      cfg.tree = center_tree_factory(1);
      congest::Session session(inst.graph, inst.cert, std::move(cfg));
      congest::SolveOptions opt;
      opt.threads = threads;

      congest::RunReport mst = session.solve(congest::Mst{inst.weights}, opt);

      congest::ApproxSssp q{inst.weights, 0};
      q.wavefront_seeds = false;  // source-independent cells: cacheable
      congest::RunReport sssp = session.solve(q, opt);

      const char* mst_parity = "oracle";
      const char* sssp_parity = "oracle";
      if (threads == 1) {
        oracle = {mst, sssp};
        base_mst_ms = mst.wall_ms;
        base_sssp_ms = sssp.wall_ms;
      } else {
        int before = failures;
        check(same_run(mst, oracle.mst), "mst telemetry", inst.family,
              threads);
        check(mst.mst().edges == oracle.mst.mst().edges, "mst edges",
              inst.family, threads);
        mst_parity = failures == before ? "ok" : "violated";
        before = failures;
        check(same_run(sssp, oracle.sssp), "sssp telemetry", inst.family,
              threads);
        check(sssp.sssp().dist == oracle.sssp.sssp().dist, "sssp dist",
              inst.family, threads);
        sssp_parity = failures == before ? "ok" : "violated";
      }
      const double mst_speedup =
          mst.wall_ms > 0 ? base_mst_ms / mst.wall_ms : 1.0;
      const double sssp_speedup =
          sssp.wall_ms > 0 ? base_sssp_ms / sssp.wall_ms : 1.0;
      std::printf(
          "  threads=%d  mst: %7lld rounds %9lld msgs %8.1f ms (%.2fx)   "
          "sssp: %7lld rounds %9lld msgs %8.1f ms (%.2fx)\n",
          threads, mst.rounds, mst.messages, mst.wall_ms, mst_speedup,
          sssp.rounds, sssp.messages, sssp.wall_ms, sssp_speedup);
      report.row()
          .set("family", inst.family)
          .set("n", static_cast<long long>(n))
          .set("workload", "mst")
          .set_run(mst)
          .set("speedup", mst_speedup)
          .set("parity", mst_parity);
      report.row()
          .set("family", inst.family)
          .set("n", static_cast<long long>(n))
          .set("workload", "sssp.approx")
          .set_run(sssp)
          .set("speedup", sssp_speedup)
          .set("parity", sssp_parity);
    }
  }

  const bool wrote = report.write();
  if (failures > 0) {
    std::printf("\n%d parity violation(s) — the engine is NOT bit-identical\n",
                failures);
    return 1;
  }
  std::printf(
      "\nAll widths bit-identical to the sequential oracle "
      "(rounds/messages/charges/payloads).\n");
  return wrote ? 0 : 1;
}
