#include "p2pse/topo/topology.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "p2pse/support/csv.hpp"
#include "p2pse/support/number.hpp"
#include "p2pse/support/sharding.hpp"
#include "p2pse/support/spec_reader.hpp"

namespace p2pse::topo {
namespace {

using support::format_double;

[[noreturn]] void bad_spec(const std::string& why) {
  throw std::invalid_argument("topo spec: " + why);
}

/// Reads a colon-separated numeric tuple ("0.1:0.6:0.3", "40:0.03:15").
std::vector<double> parse_tuple(std::string_view key, const std::string& raw,
                                std::size_t arity) {
  std::vector<double> out =
      support::parse_number_list(raw, [key](std::string_view token) {
        bad_spec("key '" + std::string(key) + "': '" + std::string(token) +
                 "' is not a finite number");
      });
  if (out.size() != arity) {
    bad_spec("key '" + std::string(key) + "' expects " +
             std::to_string(arity) + " colon-separated numbers, got '" + raw +
             "'");
  }
  return out;
}

ClassProfile parse_class(std::string_view key, const std::string& raw) {
  const std::vector<double> t = parse_tuple(key, raw, 3);
  if (t[0] < 0.0) {
    bad_spec("key '" + std::string(key) + "': access latency must be >= 0");
  }
  if (t[1] < 0.0 || t[1] > 1.0) {
    bad_spec("key '" + std::string(key) + "': loss must be in [0, 1]");
  }
  if (t[2] < 0.0) {
    bad_spec("key '" + std::string(key) + "': jitter must be >= 0");
  }
  return ClassProfile{t[0], t[1], t[2]};
}

void apply_class_keys(TopologyConfig& config,
                      const support::SpecValueReader& reader) {
  constexpr std::string_view kClassKeys[kPeerClassCount] = {"dc", "bb", "mob"};
  if (const std::string* mix = reader.find("mix")) {
    const std::vector<double> t = parse_tuple("mix", *mix, kPeerClassCount);
    double sum = 0.0;
    for (std::size_t i = 0; i < kPeerClassCount; ++i) {
      if (t[i] < 0.0) bad_spec("key 'mix': fractions must be >= 0");
      sum += t[i];
    }
    if (sum <= 0.0) bad_spec("key 'mix': fractions must sum to > 0");
    for (std::size_t i = 0; i < kPeerClassCount; ++i) {
      config.mix[i] = t[i] / sum;
    }
  }
  for (std::size_t i = 0; i < kPeerClassCount; ++i) {
    if (const std::string* raw = reader.find(kClassKeys[i])) {
      config.classes[i] = parse_class(kClassKeys[i], *raw);
    }
  }
}

}  // namespace

std::string_view peer_class_name(PeerClass cls) noexcept {
  switch (cls) {
    case PeerClass::kDatacenter: return "datacenter";
    case PeerClass::kBroadband: return "broadband";
    case PeerClass::kMobile: return "mobile";
  }
  return "datacenter";
}

const std::vector<TopologyModelInfo>& topology_model_infos() {
  static const std::vector<TopologyModelInfo> infos = {
      {"flat", "",
       "homogeneous zero-distance network — the i.i.d. channel fast path"},
      {"classes", "mix, dc, bb, mob",
       "heterogeneous access classes (datacenter/broadband/mobile), zero "
       "distance"},
      {"clustered",
       "regions, spread, world, background, prop, penalty, mix, dc, bb, mob",
       "k Gaussian regions + uniform background, per-class access links, "
       "distance-proportional propagation, inter-region loss penalty"},
  };
  return infos;
}

bool TopologyConfig::flat() const noexcept {
  if (lossy()) return false;
  if (prop > 0.0) return false;
  for (std::size_t i = 0; i < kPeerClassCount; ++i) {
    if (mix[i] <= 0.0) continue;
    const ClassProfile& cls = classes[i];
    if (cls.access_latency > 0.0 || cls.jitter > 0.0) return false;
  }
  return true;
}

bool TopologyConfig::lossy() const noexcept {
  if (penalty > 0.0 && regions > 1) return true;
  for (std::size_t i = 0; i < kPeerClassCount; ++i) {
    if (mix[i] > 0.0 && classes[i].loss > 0.0) return true;
  }
  return false;
}

namespace {

/// The class-bearing models' defaults: a small datacenter core, a broadband
/// majority, a mobile tail — latencies in the channel's latency units,
/// losses per transmission.
TopologyConfig class_model_defaults() {
  TopologyConfig config;
  config.mix = {0.1, 0.6, 0.3};
  config.classes = {
      ClassProfile{1.0, 0.0, 0.5},     // datacenter
      ClassProfile{15.0, 0.01, 5.0},   // broadband
      ClassProfile{40.0, 0.03, 15.0},  // mobile
  };
  return config;
}

/// The clustered model's default geometry on top of the class defaults.
TopologyConfig clustered_defaults() {
  TopologyConfig config = class_model_defaults();
  config.regions = 4;
  config.spread = 50.0;
  config.world = 1000.0;
  config.background = 0.1;
  config.prop = 0.02;
  config.penalty = 0.01;
  return config;
}

}  // namespace

TopologyConfig TopologyConfig::parse(std::string_view text) {
  constexpr std::string_view kPrefix = "topo";
  if (text.substr(0, kPrefix.size()) != kPrefix ||
      (text.size() > kPrefix.size() && text[kPrefix.size()] != ':')) {
    std::string what = "'";
    what.append(text).append(
        "' must start with 'topo' (e.g. topo:clustered,regions=8)");
    bad_spec(what);
  }
  // "topo" alone is the default-constructed flat identity.
  if (text.size() <= kPrefix.size()) return TopologyConfig{};

  const support::ParsedSpec parsed =
      support::parse_model_spec(text.substr(kPrefix.size() + 1), "topo spec");
  const TopologyModelInfo& info = support::require_known_model(
      topology_model_infos(), parsed.name, "topo spec");
  support::require_known_keys(parsed.overrides, info.keys,
                              "topo spec: " + parsed.name);
  const support::SpecValueReader reader("topo spec", parsed.overrides);
  if (parsed.name == "flat") return TopologyConfig{};

  // Both class-bearing models start from the default class table/mix.
  TopologyConfig config =
      parsed.name == "classes" ? class_model_defaults() : clustered_defaults();
  config.model = parsed.name;
  apply_class_keys(config, reader);
  if (parsed.name == "classes") return config;

  // clustered: the full geometric model.
  config.regions = reader.get_uint("regions", config.regions);
  config.spread = reader.get_double("spread", config.spread);
  config.world = reader.get_double("world", config.world);
  config.background = reader.get_double("background", config.background);
  config.prop = reader.get_double("prop", config.prop);
  config.penalty = reader.get_double("penalty", config.penalty);
  if (config.spread < 0.0) bad_spec("key 'spread' must be >= 0");
  if (config.world < 0.0) bad_spec("key 'world' must be >= 0");
  if (config.background < 0.0 || config.background > 1.0) {
    bad_spec("key 'background' expects a fraction in [0, 1]");
  }
  if (config.prop < 0.0) bad_spec("key 'prop' must be >= 0");
  if (config.penalty < 0.0 || config.penalty >= 1.0) {
    bad_spec("key 'penalty' expects a loss factor in [0, 1)");
  }
  return config;
}

std::string TopologyConfig::canonical() const {
  if (model == "flat") return "topo:flat";
  // Appended piece by piece: GCC 12 misreports `"," + std::string(...)`
  // chains under -Wrestrict.
  std::string out = "topo:";
  out.append(model);
  const auto key = [&out](std::string_view name) -> std::string& {
    return out.append(",").append(name).append("=");
  };
  const auto triple = [](std::string& to, double a, double b, double c) {
    to.append(format_double(a))
        .append(":")
        .append(format_double(b))
        .append(":")
        .append(format_double(c));
  };
  if (model == "clustered") {
    key("regions").append(std::to_string(regions));
    key("spread").append(format_double(spread));
    key("world").append(format_double(world));
    key("background").append(format_double(background));
    key("prop").append(format_double(prop));
    key("penalty").append(format_double(penalty));
  }
  triple(key("mix"), mix[0], mix[1], mix[2]);
  constexpr std::string_view kClassKeys[kPeerClassCount] = {"dc", "bb", "mob"};
  for (std::size_t i = 0; i < kPeerClassCount; ++i) {
    triple(key(kClassKeys[i]), classes[i].access_latency, classes[i].loss,
           classes[i].jitter);
  }
  return out;
}

Topology::Topology(const TopologyConfig& config, support::RngStream rng)
    : config_(config), rng_(rng), flat_(config.flat()),
      lossy_(config.lossy()) {
  // Region centers come from their own substream so the per-node draws are
  // independent of the region count (adding a region moves no node that
  // kept its region index).
  support::RngStream centers = rng_.split("centers");
  centers_.reserve(config_.regions);
  // Batched draw: 2*regions consecutive uniform_real(0, world) values, in
  // the same (x, y) interleaving the scalar loop used.
  std::vector<double> coords(2 * config_.regions);
  centers.fill_uniform(coords, 0.0, config_.world);
  for (std::size_t r = 0; r < config_.regions; ++r) {
    centers_.emplace_back(coords[2 * r], coords[2 * r + 1]);
  }
}

Topology::~Topology() {
  if (attached_) attached_->set_observer(nullptr);
}

const Topology::NodeInfo& Topology::materialize(net::NodeId id) {
  if (id >= nodes_.size()) nodes_.resize(id + 1);
  std::optional<NodeInfo>& slot = nodes_[id];
  if (slot) return *slot;
  // Everything about the node comes from its own substream: draws for node
  // A can never shift draws for node B, and the materialization order
  // (query order, join order) is irrelevant — which is exactly the
  // churn-rejoin stability the replay tests pin.
  support::RngStream rng = rng_.split("node", id);
  NodeInfo info;
  info.region = config_.regions > 0 ? static_cast<std::uint32_t>(
                                          rng.uniform_u64(config_.regions))
                                    : 0;
  const bool in_background = rng.bernoulli(config_.background);
  if (!in_background && info.region < centers_.size()) {
    info.x = centers_[info.region].first + config_.spread * rng.normal();
    info.y = centers_[info.region].second + config_.spread * rng.normal();
  } else {
    info.x = rng.uniform_real(0.0, config_.world);
    info.y = rng.uniform_real(0.0, config_.world);
  }
  const double u = rng.uniform_real();
  double acc = 0.0;
  info.cls = static_cast<PeerClass>(kPeerClassCount - 1);
  for (std::size_t i = 0; i < kPeerClassCount; ++i) {
    acc += config_.mix[i];
    if (u < acc) {
      info.cls = static_cast<PeerClass>(i);
      break;
    }
  }
  slot = info;
  return *slot;
}

const Topology::NodeInfo& Topology::node(net::NodeId id) {
  return materialize(id);
}

Topology::LinkParams Topology::link(net::NodeId from, net::NodeId to) {
  const NodeInfo a = materialize(from);
  const NodeInfo& b = materialize(to);
  const ClassProfile& ca = config_.classes[static_cast<std::size_t>(a.cls)];
  const ClassProfile& cb = config_.classes[static_cast<std::size_t>(b.cls)];
  LinkParams out;
  out.latency = ca.access_latency + cb.access_latency;
  if (config_.prop > 0.0) {
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    out.latency += config_.prop * std::sqrt(dx * dx + dy * dy);
  }
  out.jitter_span = ca.jitter + cb.jitter;
  double keep = (1.0 - ca.loss) * (1.0 - cb.loss);
  if (config_.penalty > 0.0 && a.region != b.region) {
    keep *= 1.0 - config_.penalty;
  }
  out.loss = 1.0 - keep;
  return out;
}

void Topology::attach(net::Graph& graph) {
  if (attached_) attached_->set_observer(nullptr);
  attached_ = &graph;
  graph.set_observer(this);
  alive_counts_ = {};
  for (const net::NodeId id : graph.alive_nodes()) {
    const NodeInfo& info = materialize(id);
    ++alive_counts_[static_cast<std::size_t>(info.cls)];
  }
}

void Topology::attach(net::Graph& graph,
                      const support::ShardExecutor* executor) {
  // Small or budget-less attachments take the sequential path outright —
  // same bytes either way (see header), this is purely a cost call.
  constexpr std::size_t kParallelAttachThreshold = 4096;
  const std::span<const net::NodeId> alive = graph.alive_nodes();
  if (!executor || executor->workers() <= 1 ||
      alive.size() < kParallelAttachThreshold) {
    attach(graph);
    return;
  }
  if (attached_) attached_->set_observer(nullptr);
  attached_ = &graph;
  graph.set_observer(this);
  alive_counts_ = {};
  // Pre-size the cache so shard workers only ever touch their own ids'
  // slots (materialize must not resize concurrently).
  net::NodeId max_id = 0;
  for (const net::NodeId id : alive) max_id = std::max(max_id, id);
  if (nodes_.size() <= max_id) {
    nodes_.resize(static_cast<std::size_t>(max_id) + 1);
  }
  constexpr std::size_t kEmbedShards = 64;
  const std::vector<support::ShardRange> ranges =
      support::shard_ranges(alive.size(), kEmbedShards);
  std::vector<std::array<std::size_t, kPeerClassCount>> counts(kEmbedShards);
  executor->run(kEmbedShards, [&](std::size_t s) {
    auto& local = counts[s];
    for (std::size_t i = ranges[s].begin; i < ranges[s].end; ++i) {
      const NodeInfo& info = materialize(alive[i]);
      ++local[static_cast<std::size_t>(info.cls)];
    }
  });
  for (std::size_t s = 0; s < kEmbedShards; ++s) {
    for (std::size_t c = 0; c < kPeerClassCount; ++c) {
      alive_counts_[c] += counts[s][c];
    }
  }
}

void Topology::on_join(net::NodeId id) {
  const NodeInfo& info = materialize(id);
  ++alive_counts_[static_cast<std::size_t>(info.cls)];
}

void Topology::on_leave(net::NodeId id) {
  const NodeInfo& info = materialize(id);
  std::size_t& count = alive_counts_[static_cast<std::size_t>(info.cls)];
  if (count > 0) --count;
}

}  // namespace p2pse::topo
