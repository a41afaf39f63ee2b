#include "p2pse/obs/size_model.hpp"

#include <stdexcept>

#include "p2pse/support/spec_reader.hpp"

namespace p2pse::obs {
namespace {

constexpr std::size_t kClasses =
    static_cast<std::size_t>(sim::MessageClass::kCount_);

}  // namespace

MessageSizeModel MessageSizeModel::parse(std::string_view text) {
  support::ParsedSpec parsed = support::parse_spec(text, "sizes spec");
  if (parsed.name != "sizes") {
    throw std::invalid_argument("sizes spec '" + std::string(text) +
                                "' must start with 'sizes' (e.g. "
                                "sizes:header=48,walk_step=64)");
  }
  support::require_known_keys(parsed.overrides, keys_help(), "sizes spec");
  const support::SpecValueReader reader("sizes spec", parsed.overrides);
  MessageSizeModel model;
  model.header = reader.get_uint("header", model.header);
  for (std::size_t i = 0; i < kClasses; ++i) {
    model.payload[i] = reader.get_uint(
        sim::to_string(static_cast<sim::MessageClass>(i)), model.payload[i]);
  }
  return model;
}

std::string_view MessageSizeModel::keys_help() noexcept {
  return "header, walk_step, sample_reply, gossip_spread, poll_reply, "
         "aggregation_push, aggregation_pull, control";
}

std::string MessageSizeModel::canonical() const {
  std::string out = "sizes:header=" + std::to_string(header);
  for (std::size_t i = 0; i < kClasses; ++i) {
    out += ',';
    out += sim::to_string(static_cast<sim::MessageClass>(i));
    out += '=';
    out += std::to_string(payload[i]);
  }
  return out;
}

sim::WireSizeTable MessageSizeModel::wire_sizes() const noexcept {
  sim::WireSizeTable out{};
  for (std::size_t i = 0; i < kClasses; ++i) out[i] = header + payload[i];
  return out;
}

}  // namespace p2pse::obs
