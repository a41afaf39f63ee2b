#pragma once
// Named trace workloads: the registry that makes trace-driven dynamics one
// spec string away, mirroring est::EstimatorRegistry's contract — unknown
// model names and unknown keys are hard errors listing the candidates.
//
// Spec grammar (the part after the "trace:" prefix, which
// scenario::workload_by_name strips):
//
//   MODEL[,key=value,...]     e.g. "weibull,shape=0.5,scale=80,seed=7"
//   file=PATH                 replay a saved ChurnTrace CSV
//
// Synthetic models size their initial population from the caller's
// `initial_nodes` (the matrix --nodes flag); a file trace carries its own
// initial size, which overrides --nodes.

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "p2pse/net/churn.hpp"
#include "p2pse/scenario/dynamics.hpp"
#include "p2pse/trace/trace.hpp"

namespace p2pse::trace {

/// One registered trace model, for --list output.
struct TraceModelInfo {
  std::string_view name;
  std::string_view keys;  ///< comma-separated accepted keys
  std::string_view what;  ///< one-line description
};

/// Every built-in trace model, in canonical order.
[[nodiscard]] const std::vector<TraceModelInfo>& trace_model_infos();

/// Builds the trace a spec describes (synthesizing or loading a file).
/// Throws std::invalid_argument on unknown models/keys/malformed values.
[[nodiscard]] ChurnTrace build_trace(std::string_view spec,
                                     std::size_t initial_nodes);

/// Dynamics adapter over a ChurnTrace: binds TraceCursor replicas. The
/// trace must already be valid (as build_trace returns it); it is not
/// checked again here.
class TraceDynamics final : public scenario::Dynamics {
 public:
  explicit TraceDynamics(ChurnTrace trace, std::string name = {},
                         net::JoinPolicy policy = {});

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  [[nodiscard]] double duration() const noexcept override {
    return trace_.duration;
  }
  [[nodiscard]] std::optional<std::size_t> initial_size()
      const noexcept override {
    return static_cast<std::size_t>(trace_.initial_sessions);
  }
  [[nodiscard]] std::unique_ptr<scenario::DynamicsCursor> bind(
      net::Graph& graph, support::RngStream rng) const override;

  [[nodiscard]] const ChurnTrace& trace() const noexcept { return trace_; }

 private:
  ChurnTrace trace_;
  std::string name_;
  net::JoinPolicy policy_;
};

/// Resolves a trace spec (without the "trace:" prefix) into shareable
/// Dynamics. Shorthand for TraceDynamics(build_trace(...)).
[[nodiscard]] std::shared_ptr<const scenario::Dynamics> workload_from_spec(
    std::string_view spec, std::size_t initial_nodes);

}  // namespace p2pse::trace
