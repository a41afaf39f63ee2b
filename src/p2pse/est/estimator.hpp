#pragma once
// Unified estimator interface. The paper's comparative setup drives every
// candidate the same way, but the candidates split into two interaction
// patterns:
//
//  * point estimators (Sample&Collide, HopsSampling, RandomTour,
//    IntervalDensity, InvertedBirthday, FlatPolling) produce one atomic
//    estimate per invocation — `estimate_point`;
//  * epoch estimators (Aggregation, MultiAggregation) interleave gossip
//    *rounds* with membership churn and expose one estimate per completed
//    epoch — `start_epoch` / `run_round` / `epoch_estimate`.
//
// `estimate` is the one call that runs a single estimation of either kind:
// a point estimator polls once; an epoch estimator runs one full epoch from
// the initiator, is read there, and is charged every message the epoch
// sent. The returned Estimate's `delay` is what the simulator's channel
// measured. Drivers that interleave rounds with churn (the scenario
// runner) call the mode methods themselves.
//
// Estimator instances may hold per-run state (smoothing windows, gossip
// values, identifier rings); drivers that fan replicas out in parallel must
// `clone()` the prototype once per replica so replicas stay independent and
// deterministic. Calling a mode's methods on an estimator of the other mode
// throws std::logic_error.
//
// Every algorithm class in est/ derives from Estimator directly and states
// its names and mode once, in the Info row it hands to this base; the
// name-keyed factory that builds them from "name:key=value,..." specs is
// est::EstimatorRegistry (registry.hpp).

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "p2pse/est/estimate.hpp"
#include "p2pse/net/graph.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::est {

class Estimator {
 public:
  enum class Mode {
    kPoint,  ///< atomic estimations, one estimate per call
    kEpoch,  ///< round-interleaved gossip, one estimate per epoch
  };

  /// What an algorithm is called and how it is driven: one static row per
  /// class.
  struct Info {
    std::string_view name;          ///< registry key, e.g. "sample_collide"
    std::string_view short_name;    ///< tag used in report ids, e.g. "sc"
    std::string_view display_name;  ///< e.g. "Sample&Collide"
    Mode mode;
    /// False when the estimator's traffic does not route through the
    /// simulator's delivery channel (Interval Density reads local leafset
    /// state). Drivers reject a non-ideal network spec for such estimators —
    /// loss-free results must never be labelled as lossy ones.
    bool uses_channel = true;
  };

  virtual ~Estimator() = default;

  [[nodiscard]] std::string_view name() const noexcept { return info_->name; }
  [[nodiscard]] std::string_view short_name() const noexcept {
    return info_->short_name;
  }
  [[nodiscard]] std::string_view display_name() const noexcept {
    return info_->display_name;
  }
  [[nodiscard]] Mode mode() const noexcept { return info_->mode; }
  [[nodiscard]] bool uses_channel() const noexcept {
    return info_->uses_channel;
  }
  /// Deep copy including run state; replicas must each drive their own clone.
  [[nodiscard]] virtual std::unique_ptr<Estimator> clone() const = 0;
  /// "key=value key=value" fragment describing the active configuration
  /// (used verbatim in report parameter lines).
  [[nodiscard]] virtual std::string describe() const = 0;

  /// One estimation from `initiator`, whatever the mode (see the header).
  [[nodiscard]] Estimate estimate(sim::Simulator& sim, net::NodeId initiator,
                                  support::RngStream& rng);

  // --- point mode -----------------------------------------------------------
  /// One atomic estimation from `initiator`. Non-const: estimators may keep
  /// cross-call state (smoothing windows, identifier rings).
  [[nodiscard]] virtual Estimate estimate_point(sim::Simulator& sim,
                                                net::NodeId initiator,
                                                support::RngStream& rng);
  /// Fraction of the overlay reached by the most recent poll-style estimate;
  /// NaN for estimators without a spread phase.
  [[nodiscard]] virtual double last_coverage() const noexcept;

  // --- epoch mode -----------------------------------------------------------
  /// Starts a fresh epoch. `initiator` seeds single-instance aggregation;
  /// multi-instance variants draw their own initiators from `rng`.
  virtual void start_epoch(sim::Simulator& sim, net::NodeId initiator,
                           support::RngStream& rng);
  virtual void run_round(sim::Simulator& sim, support::RngStream& rng);
  [[nodiscard]] virtual Estimate epoch_estimate(const sim::Simulator& sim,
                                                net::NodeId reader) const;
  [[nodiscard]] virtual std::uint32_t rounds_per_epoch() const noexcept;

 protected:
  /// `info` must outlive the estimator (a static row of the derived class).
  explicit Estimator(const Info& info) noexcept : info_(&info) {}
  Estimator(const Estimator&) = default;
  Estimator& operator=(const Estimator&) = default;
  Estimator(Estimator&&) = default;
  Estimator& operator=(Estimator&&) = default;

  /// Helper for the default implementations: throws std::logic_error naming
  /// the estimator and the missing mode.
  [[noreturn]] void wrong_mode(std::string_view method) const;

 private:
  const Info* info_;
};

}  // namespace p2pse::est
