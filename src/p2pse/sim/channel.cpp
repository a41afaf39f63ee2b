#include "p2pse/sim/channel.hpp"

#include <stdexcept>
#include <vector>

#include "p2pse/sim/run_recorder.hpp"
#include "p2pse/support/check.hpp"
#include "p2pse/support/csv.hpp"
#include "p2pse/support/number.hpp"
#include "p2pse/support/spec_reader.hpp"
#include "p2pse/topo/topology.hpp"

namespace p2pse::sim {
namespace {

/// A reliable channel would loop forever at loss=1; cap retransmissions so
/// every run terminates. At the cap the message is treated as delivered —
/// unreachable in practice below loss ~0.99.
constexpr std::uint32_t kReliableCap = 256;

[[noreturn]] void bad_latency(std::string_view value, const std::string& why) {
  throw std::invalid_argument(
      "net spec: key 'latency' expects constant:H | uniform:LO:HI | "
      "exp:MEAN | lognormal:MU:SIGMA | pareto:XM:ALPHA, got '" +
      std::string(value) + "'" + (why.empty() ? "" : " (" + why + ")"));
}

LatencyModel parse_latency(std::string_view value) {
  const std::size_t colon = value.find(':');
  const std::string_view model = value.substr(0, colon);
  const std::vector<double> args = support::parse_number_list(
      colon == std::string_view::npos ? std::string_view{}
                                      : value.substr(colon + 1),
      [value](std::string_view token) {
        bad_latency(value,
                    "'" + std::string(token) + "' is not a finite number");
      });
  // Arity first, factories second: a factory rejection (negative latency,
  // zero exponential mean, ...) is re-phrased in spec terms exactly once.
  const auto make = [&](std::size_t arity, const char* arity_error,
                        auto factory) -> LatencyModel {
    if (args.size() != arity) bad_latency(value, arity_error);
    try {
      return factory();
    } catch (const std::invalid_argument& error) {
      bad_latency(value, error.what());
    }
  };
  if (model == "constant") {
    return make(1, "constant takes one argument",
                [&] { return LatencyModel::constant(args[0]); });
  }
  if (model == "uniform") {
    return make(2, "uniform takes two arguments",
                [&] { return LatencyModel::uniform(args[0], args[1]); });
  }
  if (model == "exp" || model == "exponential") {
    return make(1, "exp takes one argument",
                [&] { return LatencyModel::exponential(args[0]); });
  }
  if (model == "lognormal") {
    return make(2, "lognormal takes two arguments",
                [&] { return LatencyModel::lognormal(args[0], args[1]); });
  }
  if (model == "pareto") {
    return make(2, "pareto takes two arguments",
                [&] { return LatencyModel::pareto(args[0], args[1]); });
  }
  bad_latency(value, "unknown model '" + std::string(model) + "'");
}

}  // namespace

NetworkConfig NetworkConfig::parse(std::string_view text) {
  // Same surface grammar as estimator specs: "net" or "net:k=v,k=v"
  // (shared tokenizer; key/value semantics below).
  support::ParsedSpec parsed = support::parse_spec(text, "net spec");
  if (parsed.name != "net") {
    throw std::invalid_argument("network spec '" + std::string(text) +
                                "' must start with 'net' (e.g. "
                                "net:loss=0.05,latency=exp:50)");
  }
  const support::SpecOverrides& overrides = parsed.overrides;
  support::require_known_keys(overrides, keys_help(), "net spec");

  const support::SpecValueReader reader("net spec", overrides);
  NetworkConfig config;
  // The defaults pass every range check, so a failing key was given.
  const auto require = [&reader](bool ok, std::string_view key,
                                 std::string_view expected) {
    if (!ok) reader.bad_value(key, expected, *reader.find(key));
  };
  config.loss = reader.get_double("loss", config.loss);
  require(config.loss >= 0.0 && config.loss <= 1.0, "loss",
          "a probability in [0, 1]");
  if (const std::string* latency = reader.find("latency")) {
    config.latency = parse_latency(*latency);
  }
  config.jitter = reader.get_double("jitter", config.jitter);
  require(config.jitter >= 0.0, "jitter", "a non-negative number");
  config.timeout = reader.get_double("timeout", config.timeout);
  require(config.timeout > 0.0, "timeout", "a positive number");
  config.retries = reader.get_uint("retries", config.retries);
  return config;
}

std::string_view NetworkConfig::keys_help() noexcept {
  return "jitter, latency, loss, retries, timeout";
}

std::string NetworkConfig::canonical() const {
  using support::format_double;
  return "net:loss=" + format_double(loss) +
         ",latency=" + latency.describe() +
         ",jitter=" + format_double(jitter) +
         ",timeout=" + format_double(timeout) +
         ",retries=" + std::to_string(retries);
}

bool Channel::lossy() const noexcept {
  return config_.loss > 0.0 || (topo_ != nullptr && topo_->lossy());
}

// Pricing: a send composes the link's deterministic parameters with the
// channel's own i.i.d. knobs,
//   p(drop)  = 1 - (1-config.loss) * (1-link.loss)
//   latency  = i.i.d. draw (+ i.i.d. jitter) + link.latency
//              + one uniform [0, link.jitter_span) access-jitter draw.
// Without a topology the loss is config.loss itself — not composed with a
// zero link loss, which would not round-trip bitwise — and the link terms
// are zero, so no access-jitter draw is made. The link parameters are
// computed once per logical send; the stochastic terms are re-drawn per
// transmission.

namespace {

double compose_loss(double iid_loss, double link_loss) noexcept {
  return 1.0 - (1.0 - iid_loss) * (1.0 - link_loss);
}

/// Every message names two real endpoints: an invalid one would be priced
/// with a garbage link (or tallied on no node) and silently skew the run.
void check_endpoints([[maybe_unused]] net::NodeId from,
                     [[maybe_unused]] net::NodeId to) {
  P2PSE_CHECK_MSG(from != net::kInvalidNode && to != net::kInvalidNode,
                  "Channel: send with an invalid endpoint");
}

}  // namespace

Channel::Pricing Channel::price(net::NodeId from, net::NodeId to) const {
  if (topo_ == nullptr) return {config_.loss, {}};
  const topo::Topology::LinkParams link = topo_->link(from, to);
  return {compose_loss(config_.loss, link.loss), link};
}

double Channel::draw_latency(const topo::Topology::LinkParams& link) {
  double out = config_.latency.sample(rng_);
  if (config_.jitter > 0.0) out += rng_.uniform_real(0.0, config_.jitter);
  out += link.latency;
  if (link.jitter_span > 0.0) out += rng_.uniform_real(0.0, link.jitter_span);
  return out;
}

void Channel::record(const MessageMeter& meter, MessageClass cls,
                     net::NodeId from, net::NodeId to,
                     const Delivery& delivery) {
  const std::uint64_t wire = meter.wire_size(cls);
  recorder_->on_send(from, delivery.transmissions, wire);
  if (delivery.delivered) {
    recorder_->on_delivered(cls, to, delivery.latency, wire);
  }
}

Channel::Delivery Channel::send_ideal(MessageMeter& meter, MessageClass cls,
                                      net::NodeId from, net::NodeId to) {
  meter.count(cls);
  ++counters_.sends_iid;
  const Delivery out;
  if (recorder_ != nullptr) record(meter, cls, from, to, out);
  return out;
}

Channel::Delivery Channel::send(MessageMeter& meter, MessageClass cls,
                                net::NodeId from, net::NodeId to) {
  check_endpoints(from, to);
  if (ideal_ && topo_ == nullptr) return send_ideal(meter, cls, from, to);
  const Pricing pricing = price(from, to);
  meter.count(cls);
  ++sends();
  Delivery out;
  if (rng_.bernoulli(pricing.loss)) {
    ++counters_.drops;
    out.delivered = false;
  } else {
    out.latency = draw_latency(pricing.link);
  }
  if (recorder_ != nullptr) record(meter, cls, from, to, out);
  return out;
}

Channel::Delivery Channel::send_arq(MessageMeter& meter, MessageClass cls,
                                    net::NodeId from, net::NodeId to) {
  check_endpoints(from, to);
  if (ideal_ && topo_ == nullptr) return send_ideal(meter, cls, from, to);
  const Pricing pricing = price(from, to);
  Delivery out;
  out.transmissions = 0;
  for (std::uint32_t attempt = 0; attempt <= config_.retries; ++attempt) {
    meter.count(cls);
    ++out.transmissions;
    ++sends();
    if (attempt > 0) ++counters_.retransmits;
    if (!rng_.bernoulli(pricing.loss)) {
      out.latency += draw_latency(pricing.link);
      if (recorder_ != nullptr) record(meter, cls, from, to, out);
      return out;
    }
    ++counters_.drops;
    out.latency += config_.timeout;  // sender waits before retransmitting
  }
  ++counters_.arq_timeouts;
  out.delivered = false;
  if (recorder_ != nullptr) record(meter, cls, from, to, out);
  return out;
}

Channel::Delivery Channel::send_reliable(MessageMeter& meter, MessageClass cls,
                                         net::NodeId from, net::NodeId to) {
  check_endpoints(from, to);
  if (ideal_ && topo_ == nullptr) return send_ideal(meter, cls, from, to);
  const Pricing pricing = price(from, to);
  Delivery out;
  out.transmissions = 0;
  while (out.transmissions < kReliableCap) {
    meter.count(cls);
    ++out.transmissions;
    ++sends();
    if (out.transmissions > 1) ++counters_.retransmits;
    if (!rng_.bernoulli(pricing.loss)) break;
    ++counters_.drops;
    out.latency += config_.timeout;
  }
  out.latency += draw_latency(pricing.link);
  if (recorder_ != nullptr) record(meter, cls, from, to, out);
  return out;
}

}  // namespace p2pse::sim
