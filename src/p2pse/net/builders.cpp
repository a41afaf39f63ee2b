#include "p2pse/net/builders.hpp"

#include <stdexcept>

namespace p2pse::net {
namespace {

void validate_degree_bounds(std::size_t nodes, std::size_t min_degree,
                            std::size_t max_degree) {
  if (min_degree == 0) {
    throw std::invalid_argument("builders: min_degree must be >= 1");
  }
  if (min_degree > max_degree) {
    throw std::invalid_argument("builders: min_degree > max_degree");
  }
  if (nodes >= 2 && max_degree >= nodes) {
    throw std::invalid_argument("builders: max_degree must be < node count");
  }
}

Graph build_capped_random(std::size_t nodes, std::size_t min_degree,
                          std::size_t max_degree, support::RngStream& rng) {
  validate_degree_bounds(nodes, min_degree, max_degree);
  Graph graph(nodes);
  if (nodes < 2) return graph;

  // Wiring pass, §IV-A: nodes taken one by one; links from earlier nodes
  // count toward the target. Candidate picks are rejected when the partner
  // is already saturated (degree == max) or already a neighbor; a bounded
  // retry budget avoids spinning near the end of the pass when almost all
  // nodes are saturated.
  for (NodeId u = 0; u < nodes; ++u) {
    const auto target = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(min_degree),
        static_cast<std::int64_t>(max_degree)));
    std::size_t attempts = 0;
    const std::size_t attempt_budget = 64 * max_degree + 64;
    while (graph.degree(u) < target && attempts < attempt_budget) {
      ++attempts;
      const NodeId v =
          static_cast<NodeId>(rng.uniform_u64(static_cast<std::uint64_t>(nodes)));
      if (v == u || graph.degree(v) >= max_degree) continue;
      graph.add_edge(u, v);  // rejects duplicates internally
    }
  }
  return graph;
}

}  // namespace

Graph build_heterogeneous_random(const HeterogeneousConfig& config,
                                 support::RngStream& rng) {
  return build_capped_random(config.nodes, config.min_degree, config.max_degree,
                             rng);
}

Graph build_homogeneous_random(const HomogeneousConfig& config,
                               support::RngStream& rng) {
  return build_capped_random(config.nodes, config.degree, config.degree, rng);
}

Graph build_barabasi_albert(const BarabasiAlbertConfig& config,
                            support::RngStream& rng) {
  if (config.attach == 0) {
    throw std::invalid_argument("barabasi_albert: attach must be >= 1");
  }
  const std::size_t seed_nodes = config.attach + 1;
  if (config.nodes < seed_nodes) {
    throw std::invalid_argument(
        "barabasi_albert: nodes must be >= attach + 1 (seed clique)");
  }
  Graph graph(config.nodes);
  // Endpoint multiset: each edge contributes both ends, so uniform draws from
  // it realize degree-proportional (preferential) attachment.
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * config.attach * config.nodes);

  // Seed clique over the first attach+1 nodes.
  for (NodeId a = 0; a < seed_nodes; ++a) {
    for (NodeId b = a + 1; b < seed_nodes; ++b) {
      graph.add_edge(a, b);
      endpoints.push_back(a);
      endpoints.push_back(b);
    }
  }

  for (NodeId u = static_cast<NodeId>(seed_nodes); u < config.nodes; ++u) {
    std::size_t added = 0;
    std::size_t attempts = 0;
    const std::size_t attempt_budget = 64 * config.attach + 64;
    while (added < config.attach && attempts < attempt_budget) {
      ++attempts;
      const NodeId target = endpoints[static_cast<std::size_t>(
          rng.uniform_u64(endpoints.size()))];
      if (target == u) continue;
      if (!graph.add_edge(u, target)) continue;  // duplicate pick
      endpoints.push_back(u);
      endpoints.push_back(target);
      ++added;
    }
  }
  return graph;
}

}  // namespace p2pse::net
