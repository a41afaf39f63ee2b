#pragma once
// Overlay topology generators used by the evaluation (§IV-A):
//  * the paper's heterogeneous random graph (degree target uniform in
//    [min,max], max-degree cap, wired node by node) — the main workload;
//  * a homogeneous variant (every node targets the same degree) — the paper
//    notes it "consistently improved all algorithms";
//  * Barabási–Albert scale-free (growth + preferential attachment, Fig 7);
//  * Erdős–Rényi G(n,p) as an extra reference topology.

#include <cstddef>

#include "p2pse/net/graph.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::net {

/// Paper §IV-A construction. Every node pre-exists; nodes are wired one by
/// one: the current node draws a degree target uniformly in
/// [min_degree, max_degree] and adds links to uniformly chosen peers that are
/// below max_degree until its own degree reaches the target (links arriving
/// from earlier nodes count toward it). With max_degree=10 this yields an
/// average degree of roughly 7.2 as the paper reports.
struct HeterogeneousConfig {
  std::size_t nodes = 0;
  std::size_t min_degree = 1;
  std::size_t max_degree = 10;
};

[[nodiscard]] Graph build_heterogeneous_random(const HeterogeneousConfig& config,
                                               support::RngStream& rng);

/// Homogeneous variant: every node's target equals `degree` (same wiring
/// procedure, min == max == degree).
struct HomogeneousConfig {
  std::size_t nodes = 0;
  std::size_t degree = 7;
};

[[nodiscard]] Graph build_homogeneous_random(const HomogeneousConfig& config,
                                             support::RngStream& rng);

/// Barabási–Albert scale-free graph: seed clique of (attach+1) nodes, then
/// growth with preferential attachment of `attach` links per new node.
/// Fig 7 uses attach = 3 ("3 neighbors min per node") at 1e5 nodes, giving
/// average degree ~6 and a max degree around 1.2e3.
struct BarabasiAlbertConfig {
  std::size_t nodes = 0;
  std::size_t attach = 3;
};

[[nodiscard]] Graph build_barabasi_albert(const BarabasiAlbertConfig& config,
                                          support::RngStream& rng);

}  // namespace p2pse::net
