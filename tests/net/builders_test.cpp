#include "p2pse/net/builders.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "p2pse/net/analysis.hpp"
#include "p2pse/support/log_bins.hpp"

#include "net/graph_oracles.hpp"

namespace p2pse::net {
namespace {

TEST(HeterogeneousBuilder, RespectsDegreeBounds) {
  support::RngStream rng(1);
  const Graph g = build_heterogeneous_random({5000, 1, 10}, rng);
  EXPECT_EQ(g.size(), 5000u);
  const DegreeStats stats = degree_stats(g);
  EXPECT_GE(stats.min, 1u);
  EXPECT_LE(stats.max, 10u);
}

TEST(HeterogeneousBuilder, AverageDegreeMatchesPaper) {
  // Paper §IV-A: max 10 neighbors "leads in both overlay sizes to an average
  // of approximatively 7.2".
  support::RngStream rng(2);
  const Graph g = build_heterogeneous_random({50000, 1, 10}, rng);
  EXPECT_NEAR(g.average_degree(), 7.2, 0.5);
}

TEST(HeterogeneousBuilder, IsConnectedEnough) {
  support::RngStream rng(3);
  const Graph g = build_heterogeneous_random({20000, 1, 10}, rng);
  EXPECT_GT(oracle::largest_component_fraction(g), 0.99);
}

TEST(HeterogeneousBuilder, DeterministicForSeed) {
  support::RngStream rng_a(7), rng_b(7), rng_c(8);
  const Graph a = build_heterogeneous_random({1000, 1, 10}, rng_a);
  const Graph b = build_heterogeneous_random({1000, 1, 10}, rng_b);
  const Graph c = build_heterogeneous_random({1000, 1, 10}, rng_c);
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (NodeId id = 0; id < 1000; ++id) EXPECT_EQ(a.degree(id), b.degree(id));
  EXPECT_NE(a.edge_count(), c.edge_count());
}

TEST(HeterogeneousBuilder, TinyGraphs) {
  support::RngStream rng(4);
  EXPECT_EQ(build_heterogeneous_random({0, 1, 10}, rng).size(), 0u);
  EXPECT_EQ(build_heterogeneous_random({1, 1, 10}, rng).size(), 1u);
  const Graph pair = build_heterogeneous_random({3, 1, 2}, rng);
  EXPECT_EQ(pair.size(), 3u);
}

TEST(HeterogeneousBuilder, ValidatesParameters) {
  support::RngStream rng(5);
  EXPECT_THROW((void)build_heterogeneous_random({100, 0, 10}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)build_heterogeneous_random({100, 8, 4}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)build_heterogeneous_random({10, 1, 10}, rng),
               std::invalid_argument);
}

TEST(HomogeneousBuilder, AllDegreesNearTarget) {
  support::RngStream rng(6);
  const Graph g = build_homogeneous_random({5000, 7}, rng);
  const DegreeStats stats = degree_stats(g);
  EXPECT_EQ(stats.max, 7u);
  EXPECT_NEAR(stats.mean, 7.0, 0.1);
  // The wiring pass is best-effort: a tiny residue may fall short, but the
  // bulk must hit the target exactly.
  EXPECT_GE(static_cast<double>(stats.counts[7]), 4900.0);
}

TEST(HomogeneousBuilder, Connected) {
  support::RngStream rng(7);
  const Graph g = build_homogeneous_random({10000, 7}, rng);
  EXPECT_GT(oracle::largest_component_fraction(g), 0.999);
}

TEST(BarabasiAlbertBuilder, BasicShape) {
  support::RngStream rng(8);
  const Graph g = build_barabasi_albert({20000, 3}, rng);
  EXPECT_EQ(g.size(), 20000u);
  const DegreeStats stats = degree_stats(g);
  EXPECT_GE(stats.min, 3u);           // every non-seed node attaches 3 links
  EXPECT_NEAR(stats.mean, 6.0, 0.3);  // 2m
  EXPECT_GT(stats.max, 100u);         // heavy tail (hubs)
}

TEST(BarabasiAlbertBuilder, HeavierTailThanRandomGraph) {
  support::RngStream rng_a(9), rng_b(9);
  const Graph ba = build_barabasi_albert({20000, 3}, rng_a);
  const Graph rnd = build_heterogeneous_random({20000, 1, 10}, rng_b);
  EXPECT_GT(degree_stats(ba).max, 10 * degree_stats(rnd).max);
}

TEST(BarabasiAlbertBuilder, PowerLawSlopeNearMinusThree) {
  support::RngStream rng(10);
  const Graph g = build_barabasi_albert({50000, 3}, rng);
  const auto bins = support::log_binned(degree_stats(g).counts);
  const double slope = support::power_law_slope(bins);
  EXPECT_LT(slope, -2.0);
  EXPECT_GT(slope, -4.0);
}

TEST(BarabasiAlbertBuilder, Connected) {
  // Growth attaches every node to the existing component.
  support::RngStream rng(11);
  const Graph g = build_barabasi_albert({5000, 3}, rng);
  EXPECT_DOUBLE_EQ(oracle::largest_component_fraction(g), 1.0);
}

TEST(BarabasiAlbertBuilder, ValidatesParameters) {
  support::RngStream rng(12);
  EXPECT_THROW((void)build_barabasi_albert({100, 0}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)build_barabasi_albert({3, 3}, rng),
               std::invalid_argument);
}

TEST(BarabasiAlbertBuilder, SeedCliqueOnlyCase) {
  support::RngStream rng(13);
  const Graph g = build_barabasi_albert({4, 3}, rng);  // exactly the clique
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.edge_count(), 6u);
}

TEST(ErdosRenyiBuilder, HitsTargetAverageDegree) {
  support::RngStream rng(14);
  const Graph g = oracle::build_erdos_renyi({20000, 7.2}, rng);
  EXPECT_NEAR(g.average_degree(), 7.2, 0.3);
}

TEST(ErdosRenyiBuilder, EdgeCases) {
  support::RngStream rng(15);
  EXPECT_EQ(oracle::build_erdos_renyi({0, 5.0}, rng).edge_count(), 0u);
  EXPECT_EQ(oracle::build_erdos_renyi({1, 5.0}, rng).edge_count(), 0u);
  EXPECT_EQ(oracle::build_erdos_renyi({100, 0.0}, rng).edge_count(), 0u);
  // Saturated p -> complete graph.
  const Graph complete = oracle::build_erdos_renyi({10, 20.0}, rng);
  EXPECT_EQ(complete.edge_count(), 45u);
}

TEST(ErdosRenyiBuilder, NoSelfLoopsOrDuplicates) {
  support::RngStream rng(16);
  const Graph g = oracle::build_erdos_renyi({2000, 6.0}, rng);
  std::size_t degree_sum = 0;
  for (const NodeId u : g.alive_nodes()) degree_sum += g.degree(u);
  EXPECT_EQ(degree_sum, 2 * g.edge_count());
}

// Property sweep: every builder produces a sane overlay across sizes/seeds.
using BuilderCase = std::tuple<std::string, std::size_t, std::uint64_t>;

class BuilderProperties : public ::testing::TestWithParam<BuilderCase> {};

TEST_P(BuilderProperties, ProducesSaneOverlay) {
  const auto& [kind, nodes, seed] = GetParam();
  support::RngStream rng(seed);
  Graph g;
  if (kind == "hetero") {
    g = build_heterogeneous_random({nodes, 1, 10}, rng);
  } else if (kind == "homo") {
    g = build_homogeneous_random({nodes, 7}, rng);
  } else if (kind == "ba") {
    g = build_barabasi_albert({nodes, 3}, rng);
  } else {
    g = oracle::build_erdos_renyi({nodes, 7.2}, rng);
  }
  EXPECT_EQ(g.size(), nodes);
  // Symmetric adjacency, no self-loops, no dead references.
  std::size_t degree_sum = 0;
  for (const NodeId u : g.alive_nodes()) {
    degree_sum += g.degree(u);
    for (const NodeId v : g.neighbors(u)) {
      EXPECT_NE(v, u);
      EXPECT_TRUE(oracle::has_edge(g, v, u));
    }
  }
  EXPECT_EQ(degree_sum, 2 * g.edge_count());
  EXPECT_GT(oracle::largest_component_fraction(g), 0.95);
}

INSTANTIATE_TEST_SUITE_P(
    AllBuilders, BuilderProperties,
    ::testing::Combine(::testing::Values("hetero", "homo", "ba", "er"),
                       ::testing::Values(std::size_t{500}, std::size_t{5000}),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{99})),
    [](const ::testing::TestParamInfo<BuilderCase>& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace p2pse::net
