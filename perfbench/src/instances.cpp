#include "instances.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "gen/apex.hpp"
#include "gen/clique_sum.hpp"
#include "gen/ktree.hpp"
#include "gen/planar.hpp"
#include "gen/weights.hpp"
#include "structure/clique_sum.hpp"

namespace perfbench {

using namespace mns;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

VertexId end_vertex(const Instance& inst, std::uint64_t seed) {
  return static_cast<VertexId>(mix_seed(seed, 0) %
                               static_cast<std::uint64_t>(inst.end_region));
}

std::vector<Weight> shuffled_rank_weights(const Graph& g, std::uint64_t seed) {
  std::vector<Weight> w(static_cast<std::size_t>(g.num_edges()));
  std::iota(w.begin(), w.end(), Weight{1});
  Rng rng(seed);
  std::shuffle(w.begin(), w.end(), rng);
  return w;
}

Instance planar_grid(int rows, int cols, std::uint64_t seed) {
  Instance inst;
  inst.family = "planar";
  inst.graph = gen::grid_graph(rows, cols);
  inst.weights = shuffled_rank_weights(inst.graph, mix_seed(seed, 1));
  inst.cert = greedy_certificate();
  inst.end_region = 8;  // the corner of the first row
  return inst;
}

Instance apexed_chain(int bags, std::uint64_t seed) {
  constexpr int kSide = 16;
  constexpr VertexId kPer = kSide * kSide;
  const Graph cell = gen::grid_graph(kSide, kSide);
  std::vector<VertexId> snake;  // boustrophedon order of local ids
  for (int r = 0; r < kSide; ++r)
    for (int i = 0; i < kSide; ++i)
      snake.push_back(r * kSide + (r % 2 == 0 ? i : kSide - 1 - i));

  // Bag b's snake start is bag b-1's snake end; every other vertex is fresh.
  const auto nb = static_cast<std::size_t>(bags);
  std::vector<std::vector<VertexId>> to_global(nb, std::vector<VertexId>(kPer));
  VertexId next = 0;
  for (std::size_t b = 0; b < nb; ++b)
    for (VertexId l = 0; l < kPer; ++l)
      to_global[b][l] = (b > 0 && l == snake.front())
                            ? to_global[b - 1][snake.back()]
                            : next++;
  std::vector<VertexId> apex(nb);
  for (std::size_t b = 0; b < nb; ++b) apex[b] = next++;

  GraphBuilder gb(next);
  for (std::size_t b = 0; b < nb; ++b) {
    for (EdgeId e = 0; e < cell.num_edges(); ++e)
      gb.add_edge(to_global[b][cell.edge(e).u], to_global[b][cell.edge(e).v]);
    for (VertexId l = 0; l < kPer; ++l) gb.add_edge(apex[b], to_global[b][l]);
  }
  Instance inst;
  inst.family = "cliquesum";
  inst.graph = gb.build();
  inst.end_region = 8;  // the first row of bag 0
  const Graph& g = inst.graph;

  std::vector<std::vector<VertexId>> bag_vertices(nb), parent_clique(nb),
      bag_apices(nb);
  std::vector<std::vector<EdgeId>> bag_edges(nb);
  std::vector<BagId> parent(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    bag_vertices[b] = to_global[b];
    bag_vertices[b].push_back(apex[b]);
    bag_apices[b] = {apex[b]};
    for (EdgeId e = 0; e < cell.num_edges(); ++e)
      bag_edges[b].push_back(g.find_edge(to_global[b][cell.edge(e).u],
                                         to_global[b][cell.edge(e).v]));
    for (VertexId l = 0; l < kPer; ++l)
      bag_edges[b].push_back(g.find_edge(apex[b], to_global[b][l]));
    parent[b] = static_cast<BagId>(b) - 1;
    if (b > 0) parent_clique[b] = {to_global[b][snake.front()]};
  }

  // One continuous light route through every bag's serpentine; every other
  // edge is heavier than the whole route.
  std::vector<char> on_route(static_cast<std::size_t>(g.num_edges()), 0);
  Weight route_len = 0;
  for (std::size_t b = 0; b < nb; ++b)
    for (std::size_t i = 0; i + 1 < snake.size(); ++i) {
      const auto e = static_cast<std::size_t>(
          g.find_edge(to_global[b][snake[i]], to_global[b][snake[i + 1]]));
      if (!on_route[e]) {
        on_route[e] = 1;
        ++route_len;
      }
    }
  std::vector<Weight> light(static_cast<std::size_t>(route_len));
  std::iota(light.begin(), light.end(), Weight{1});
  Rng rng(mix_seed(seed, 2));
  std::shuffle(light.begin(), light.end(), rng);
  std::size_t li = 0;
  Weight heavy = 10 * static_cast<Weight>(g.num_vertices()) *
                 static_cast<Weight>(g.num_vertices());
  inst.weights.resize(static_cast<std::size_t>(g.num_edges()));
  for (std::size_t e = 0; e < inst.weights.size(); ++e)
    inst.weights[e] = on_route[e] ? light[li++] : heavy++;

  inst.cert = CliqueSumCertificate{
      .decomposition = CliqueSumDecomposition(
          std::move(bag_vertices), std::move(bag_edges), std::move(parent),
          std::move(parent_clique)),
      .apex_aware = true,
      .bag_apices = std::move(bag_apices)};
  return inst;
}

std::vector<Instance> serving_instances() {
  std::vector<Instance> out;
  Rng rng(71);
  out.push_back(planar_grid(32, 32, 73));
  {
    gen::KTreeResult kt = gen::random_ktree(1024, 3, rng);
    out.push_back({"treewidth", std::move(kt.graph), {},
                   treewidth_certificate(std::move(kt.decomposition))});
  }
  {
    gen::ApexResult ar =
        gen::add_apices(gen::grid_graph(32, 32), 1, 0.1, rng);
    out.push_back({"apex", std::move(ar.graph), {},
                   apex_certificate(std::move(ar.apices))});
  }
  {
    const Graph bag = gen::triangulated_grid(4, 4).graph();
    std::vector<gen::BagInput> inputs;
    for (int i = 0; i < 16; ++i)
      inputs.push_back({bag, gen::default_glue_cliques(bag, 2)});
    gen::CliqueSumResult cs = gen::compose_clique_sum(inputs, 2, 0.0, rng);
    out.push_back({"cliquesum", std::move(cs.graph), {},
                   cliquesum_certificate(std::move(cs.decomposition))});
  }
  for (std::size_t i = 1; i < out.size(); ++i)
    out[i].weights = shuffled_rank_weights(out[i].graph, 73 + i);
  return out;
}

}  // namespace perfbench
