#pragma once
// Interval-density size estimation for identifier-based (structured)
// overlays — the class the paper's §I/§II contrasts with the generic
// candidates ([11], [13], [14], [17]; the only prior comparison, [17],
// pits HopsSampling against exactly this approach).
//
// Every node holds an identifier drawn uniformly at random from the unit
// ring [0,1). In a DHT (Chord/Pastry) a node knows its `leafset`: the k
// closest identifiers. The expected ring distance covered by k successors
// is k/N, so the density of the local leafset reveals N. With d_k the
// distance from a node's id to its k-th successor, d_k ~ Gamma(k)/N and
//   N-hat = (k-1)/d_k
// is the unbiased inverse estimate (E[1/d_k] = N/(k-1) for k >= 2).
//
// Cost model: a real DHT maintains the leafset anyway; probing the k
// successors for an on-demand estimate costs k kControl messages, which is
// what the meter charges. The point of the paper stands: this is far
// cheaper and more accurate than any generic scheme — but it only works on
// identifier-structured overlays.

#include <cstdint>
#include <optional>
#include <vector>

#include "p2pse/est/estimator.hpp"
#include "p2pse/net/graph.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::est {

/// The identifier substrate: assigns every alive node a uniform id on the
/// unit ring and answers successor queries. Rebuild after churn.
class IdentifierSpace {
 public:
  /// Assigns fresh uniform ids to every alive node of `graph`.
  IdentifierSpace(const net::Graph& graph, support::RngStream& rng);

  /// Id of a node; NaN for unknown/dead nodes.
  [[nodiscard]] double id_of(net::NodeId node) const;

  /// The `count` nodes whose ids follow `node`'s id on the ring (excluding
  /// the node itself), in ring order. Fewer if the population is smaller.
  [[nodiscard]] std::vector<net::NodeId> successors(net::NodeId node,
                                                    std::size_t count) const;

  /// Ring distance (mod 1) from `node`'s id to the id of `other`.
  [[nodiscard]] double ring_distance(net::NodeId node, net::NodeId other) const;

  [[nodiscard]] std::size_t population() const noexcept {
    return ring_.size();
  }

 private:
  struct Slot {
    double id;
    net::NodeId node;
  };
  [[nodiscard]] std::size_t position_of(net::NodeId node) const;

  std::vector<Slot> ring_;                    // sorted by id
  std::vector<std::uint32_t> slot_of_node_;   // node -> ring index
};

struct IntervalDensityConfig {
  std::size_t leafset = 16;  ///< k: successors consulted per estimate
};

class IntervalDensity final : public Estimator {
 public:
  static constexpr Info kInfo{"interval_density", "density", "Interval Density",
                             Mode::kPoint, /*uses_channel=*/false};

  explicit IntervalDensity(IntervalDensityConfig config);

  [[nodiscard]] std::unique_ptr<Estimator> clone() const override {
    return std::make_unique<IntervalDensity>(*this);
  }
  [[nodiscard]] std::string describe() const override;
  /// Lazily assigns uniform ring identifiers to the overlay (drawn from
  /// `rng`) and re-assigns them whenever the population changed since the
  /// previous call — the simulation analogue of DHT leafset maintenance.
  [[nodiscard]] Estimate estimate_point(sim::Simulator& sim,
                                        net::NodeId initiator,
                                        support::RngStream& rng) override;

  /// Estimates the population from `node`'s leafset density. Charges
  /// `leafset` kControl messages (successor probes).
  [[nodiscard]] Estimate estimate_once(sim::Simulator& sim,
                                       const IdentifierSpace& ids,
                                       net::NodeId node) const;

  [[nodiscard]] const IntervalDensityConfig& config() const noexcept {
    return config_;
  }

 private:
  IntervalDensityConfig config_;
  std::optional<IdentifierSpace> ids_;
};

}  // namespace p2pse::est
