// p2pse_matrix — run ANY registered estimator crossed with ANY scenario at
// any scale, including combinations the paper never plotted (Random Tour
// under catastrophic failures, Interval Density under oscillating flash
// crowds, ...). Replicas fan out over the deterministic parallel runner, so
// the report is byte-identical at any --threads value.
//
//   p2pse_matrix --estimator sample_collide:l=50 --scenario oscillating
//   p2pse_matrix --estimator aggregation_suite:instances=16
//                --scenario shrinking --nodes 50000 --rounds-per-unit 5
//   p2pse_matrix --estimator random_tour --scenario trace:weibull,shape=0.5
//   p2pse_matrix --scenario trace:file=ipfs_sessions.csv --csv replay.csv
//   p2pse_matrix --list
#include "figure_main.hpp"

namespace {

constexpr p2pse::support::Flag kScenarioFlags[] = {
    {"scenario", "NAME",
     "static|catastrophic|growing|shrinking|oscillating, or\n"
     "a trace workload trace:MODEL[,k=v,...] (weibull,\n"
     "pareto, exponential, diurnal, flashcrowd, file=PATH;\n"
     "default static)"},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace p2pse;
  return support::run_main(argc, argv, [](const support::Args& args) {
    if (support::handle_flags(
            args, "run any estimator x workload x size combination",
            {harness::kMatrixFlags, kScenarioFlags, harness::kListFlags,
             harness::kReportFlags},
            harness::matrix_default)) {
      return 0;
    }
    if (args.get_bool("list", false)) {
      harness::print_axes();
      return 0;
    }
    return harness::matrix_report(args, args.get_string("scenario", "static"));
  });
}
