#pragma once
// Declarative figure/table matrix. Every paper figure, the overhead table
// and every ablation is one FigureSpec row: an estimator spec (resolved by
// est::EstimatorRegistry), a scenario name (resolved by
// scenario::script_by_name), the paper-default FigureParams, and the
// generic generator family that drives the combination. The bench binaries
// are one-line table lookups over this table (bench/figure_main.hpp), and
// `run_matrix` drives ANY registered estimator × scenario × size
// combination — including pairs the paper never plotted — through the same
// machinery.
//
// Generators are pure functions of (spec, params): every figure is
// reproducible bit-for-bit from its seed at any thread count.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "p2pse/harness/report.hpp"

namespace p2pse::obs {
class RunTelemetry;
}  // namespace p2pse::obs

namespace p2pse::harness {

/// Scale / determinism knobs shared by all figures. Every bench binary maps
/// --nodes/--seed/--estimations/... onto this.
struct FigureParams {
  std::size_t nodes = 100'000;
  std::uint64_t seed = 42;
  std::size_t estimations = 100;  ///< x-axis length for estimation figures
  std::size_t replicas = 3;       ///< "Estimation #1..#3" curves
  std::uint32_t sc_collisions = 200;   ///< Sample&Collide l
  double sc_timer = 10.0;              ///< Sample&Collide T
  std::uint32_t agg_rounds = 50;       ///< Aggregation epoch length
  std::size_t last_k = 10;             ///< last10runs window
  std::size_t threads = 0;  ///< replica fan-out width; 0 = hardware threads.
                            ///< Output is byte-identical at any value.
  /// Intra-replica worker budget (--sim-threads): shards the topology
  /// embedding inside each replica. 1 = sequential (default), 0 = auto
  /// (hardware / replica workers), N = explicit. Composes with `threads`
  /// without oversubscribing: see support::sim_worker_budget. Output is
  /// byte-identical at any value.
  std::size_t sim_threads = 1;
  /// Delivery-layer spec ("net:loss=0.05,latency=exp:50,..."), parsed by
  /// sim::NetworkConfig::parse and installed on every replica's simulator.
  /// Empty = the ideal channel; an explicit all-ideal spec
  /// ("net:loss=0,latency=constant:0") produces byte-identical reports.
  std::string net{};
  /// Per-link topology spec ("topo:clustered,regions=8,mix=0:0.2:0.8"),
  /// parsed by topo::TopologyConfig::parse and installed on every replica's
  /// simulator. Empty = the flat topology; an explicit "topo:flat" also
  /// installs nothing and produces byte-identical reports.
  std::string topo{};
  /// Wire-size spec ("sizes:header=48,walk_step=64"), parsed by
  /// obs::MessageSizeModel::parse and installed on every replica meter.
  /// Pure accounting: it prices the bytes columns and nothing else — every
  /// count, draw and delivery is byte-identical under any size table.
  /// Empty (the default) keeps the built-in sizes.
  std::string sizes{};
  /// Optional telemetry sink (non-owning, may be null — the default). When
  /// set, generators open trace spans (graph-build / simulate / merge),
  /// feed the progress heartbeat, and snapshot every replica simulator's
  /// counters into it. Never perturbs an RNG stream: the report is
  /// byte-identical with or without a sink.
  obs::RunTelemetry* telemetry = nullptr;
};

struct FigureSpec;
using FigureGeneratorFn = FigureReport (*)(const FigureSpec& spec,
                                           const FigureParams& params);

/// One row of the figure matrix.
struct FigureSpec {
  std::string_view id;         ///< table key, e.g. "fig01" or "ablation_delay"
  std::string_view what;       ///< one-line description (binary --help)
  std::string_view estimator;  ///< est::EstimatorRegistry spec ("" = n/a)
  std::string_view scenario;   ///< scenario::script_by_name key ("" = n/a)
  FigureGeneratorFn generate = nullptr;
  FigureParams defaults{};     ///< the paper's values for this figure
};

/// The full figure/table/ablation matrix, in paper order.
[[nodiscard]] const std::vector<FigureSpec>& figure_specs();

/// Looks a spec up by id; nullptr when absent.
[[nodiscard]] const FigureSpec* find_figure(std::string_view id);

/// Runs one spec at the given scale (params, not spec.defaults, decide the
/// scale — binaries overlay CLI flags onto spec.defaults first).
[[nodiscard]] FigureReport run_figure(const FigureSpec& spec,
                                      const FigureParams& params);

/// Convenience: lookup + run. Throws std::invalid_argument listing the
/// known ids when `id` is not in the table.
[[nodiscard]] FigureReport run_figure(std::string_view id,
                                      const FigureParams& params);

/// The paper-parameter overlay: registry spec `text` with §IV's parameters
/// from `params` layered underneath its own keys (an explicit key wins):
/// Sample&Collide's l and T, Aggregation's rounds and, when `smooth_hs`,
/// HopsSampling's lastK window. T is written in shortest round-trip form,
/// so the walk runs the exact value given.
[[nodiscard]] std::string with_paper_params(std::string_view text,
                                            const FigureParams& params,
                                            bool smooth_hs);

/// Free-form estimator × scenario × size combination (the `p2pse_matrix`
/// driver). Any registered estimator spec crossed with any named scenario,
/// fanned over params.replicas deterministic replicas. `estimator` runs as
/// given: no paper parameters are layered under it.
struct MatrixOptions {
  std::string estimator = "sample_collide";  ///< registry spec text
  std::string scenario = "static";           ///< scenario name
  double rounds_per_unit = 10.0;  ///< epoch-mode gossip pacing
  FigureParams params{};
};

[[nodiscard]] FigureReport run_matrix(const MatrixOptions& options);

}  // namespace p2pse::harness
