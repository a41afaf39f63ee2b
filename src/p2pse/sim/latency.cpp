#include "p2pse/sim/latency.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "p2pse/support/csv.hpp"

namespace p2pse::sim {

LatencyModel LatencyModel::constant(double hop) {
  if (hop < 0.0) throw std::invalid_argument("LatencyModel: negative latency");
  return LatencyModel(Kind::kConstant, hop, hop);
}

LatencyModel LatencyModel::uniform(double lo, double hi) {
  if (lo < 0.0 || hi < lo) {
    throw std::invalid_argument("LatencyModel: invalid uniform range");
  }
  return LatencyModel(Kind::kUniform, lo, hi);
}

LatencyModel LatencyModel::exponential(double mean) {
  if (mean <= 0.0) {
    throw std::invalid_argument("LatencyModel: exponential mean must be > 0");
  }
  return LatencyModel(Kind::kExponential, mean, 0.0);
}

LatencyModel LatencyModel::lognormal(double mu, double sigma) {
  if (sigma < 0.0) {
    throw std::invalid_argument("LatencyModel: lognormal sigma must be >= 0");
  }
  return LatencyModel(Kind::kLognormal, mu, sigma);
}

LatencyModel LatencyModel::pareto(double xm, double alpha) {
  if (xm <= 0.0) {
    throw std::invalid_argument("LatencyModel: pareto xm must be > 0");
  }
  if (alpha <= 0.0) {
    throw std::invalid_argument("LatencyModel: pareto alpha must be > 0");
  }
  return LatencyModel(Kind::kPareto, xm, alpha);
}

double LatencyModel::sample(support::RngStream& rng) const {
  switch (kind_) {
    case Kind::kConstant: return a_;
    case Kind::kUniform: return rng.uniform_real(a_, b_);
    case Kind::kExponential: return rng.exponential(1.0 / a_);
    case Kind::kLognormal: return std::exp(rng.normal(a_, b_));
    case Kind::kPareto: return rng.pareto(a_, b_);
  }
  return a_;
}

double LatencyModel::mean() const noexcept {
  switch (kind_) {
    case Kind::kConstant: return a_;
    case Kind::kUniform: return 0.5 * (a_ + b_);
    case Kind::kExponential: return a_;
    case Kind::kLognormal: return std::exp(a_ + 0.5 * b_ * b_);
    case Kind::kPareto:
      return b_ > 1.0 ? b_ * a_ / (b_ - 1.0)
                      : std::numeric_limits<double>::infinity();
  }
  return a_;
}

std::string LatencyModel::describe() const {
  using support::format_double;
  switch (kind_) {
    case Kind::kConstant: return "constant:" + format_double(a_);
    case Kind::kUniform:
      return "uniform:" + format_double(a_) + ":" + format_double(b_);
    case Kind::kExponential: return "exp:" + format_double(a_);
    case Kind::kLognormal:
      return "lognormal:" + format_double(a_) + ":" + format_double(b_);
    case Kind::kPareto:
      return "pareto:" + format_double(a_) + ":" + format_double(b_);
  }
  return "constant:" + format_double(a_);
}

}  // namespace p2pse::sim
