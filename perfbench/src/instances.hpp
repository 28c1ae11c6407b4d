// Seeded benchmark inputs. Every graph, weight vector and certificate the
// benchmark hands to the library is built here from the workload seed, with
// the repository's own generators; the shapes are fixed by the benchmark so
// that a change to a library generator's defaults cannot silently change
// what is measured.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/certificate.hpp"
#include "graph/graph.hpp"

namespace perfbench {

struct Instance {
  std::string family;
  mns::Graph graph;
  std::vector<mns::Weight> weights;
  mns::StructuralCertificate cert;
  /// Vertices [0, end_region) sit at one end of the network (a corner of
  /// the grid, the chain's first bag). Seeded SSSP/BFS sources are drawn
  /// there, so every seed's search spans the whole network and the
  /// simulated cost varies little from seed to seed.
  mns::VertexId end_region = 1;
};

/// Distinct weights 1..m in a seeded random order (the capacity regime:
/// message volume reflects the family's structure, not a planted pattern).
std::vector<mns::Weight> shuffled_rank_weights(const mns::Graph& g,
                                               std::uint64_t seed);

/// rows x cols grid, greedy certificate, shuffled-rank weights.
Instance planar_grid(int rows, int cols, std::uint64_t seed);

/// A chain of `bags` 16x16 grid bags, each with its own apex adjacent to the
/// whole bag, consecutive bags glued at one vertex where their serpentines
/// meet (n = 255 * bags + 1 + bags). The light weights follow the one long
/// serpentine route through every bag, in seeded order; the certificate is
/// the full clique-sum pipeline with apex-aware local oracles.
Instance apexed_chain(int bags, std::uint64_t seed);

/// The four bench_serve shapes: 32x32 planar grid, random 3-tree on 1024
/// vertices, 32x32 grid plus one apex, and a 2-clique-sum of 16
/// triangulated 4x4 grids, graphs and weights fixed (bench_serve's
/// generator seeds): a request's cost then does not move with the workload
/// seed, which would shift the latency percentiles between families.
std::vector<Instance> serving_instances();

/// A seeded vertex of `inst`'s end region.
mns::VertexId end_vertex(const Instance& inst, std::uint64_t seed);

/// splitmix64: derives independent sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
