#include "p2pse/obs/metrics.hpp"

#include <algorithm>

#include "p2pse/sim/run_recorder.hpp"
#include "p2pse/sim/simulator.hpp"

namespace p2pse::obs {

Distributions::Distributions()
    : walk_hops(sim::walk_hop_bounds()),
      node_messages(sim::node_message_bounds()),
      node_bytes(sim::node_byte_bounds()),
      degree(sim::degree_bounds()) {
  delay.reserve(kNumMessageClasses);
  for (std::size_t i = 0; i < kNumMessageClasses; ++i) {
    delay.emplace_back(sim::delay_bounds());
  }
}

Distributions& Distributions::operator+=(const Distributions& other) {
  for (std::size_t i = 0; i < kNumMessageClasses; ++i) {
    delay[i] += other.delay[i];
  }
  walk_hops += other.walk_hops;
  node_messages += other.node_messages;
  node_bytes += other.node_bytes;
  degree += other.degree;
  return *this;
}

SimCounters& SimCounters::operator+=(const SimCounters& other) {
  replicas += other.replicas;
  channel_sends_iid += other.channel_sends_iid;
  channel_sends_link += other.channel_sends_link;
  channel_drops += other.channel_drops;
  channel_retransmits += other.channel_retransmits;
  channel_arq_timeouts += other.channel_arq_timeouts;
  graph_joins += other.graph_joins;
  graph_leaves += other.graph_leaves;
  graph_chunk_recycles += other.graph_chunk_recycles;
  for (std::size_t i = 0; i < kNumMessageClasses; ++i) {
    messages[i] += other.messages[i];
    bytes[i] += other.bytes[i];
  }
  messages_total += other.messages_total;
  bytes_total += other.bytes_total;
  max_node_messages = std::max(max_node_messages, other.max_node_messages);
  max_node_bytes = std::max(max_node_bytes, other.max_node_bytes);
  distributions += other.distributions;
  return *this;
}

SimCounters collect(const sim::Simulator& sim) {
  SimCounters out;
  out.replicas = 1;

  const sim::Channel::Counters& channel = sim.channel().counters();
  out.channel_sends_iid = channel.sends_iid;
  out.channel_sends_link = channel.sends_link;
  out.channel_drops = channel.drops;
  out.channel_retransmits = channel.retransmits;
  out.channel_arq_timeouts = channel.arq_timeouts;

  const net::Graph::Counters& graph = sim.graph().counters();
  out.graph_joins = graph.joins;
  out.graph_leaves = graph.leaves;
  out.graph_chunk_recycles = graph.chunk_recycles;

  for (std::size_t i = 0; i < kNumMessageClasses; ++i) {
    const auto cls = static_cast<sim::MessageClass>(i);
    out.messages[i] = sim.meter().of(cls);
    out.bytes[i] = sim.meter().bytes_of(cls);
  }
  out.messages_total = sim.meter().total();
  out.bytes_total = sim.meter().total_bytes();

  // The degree distribution needs only the graph; the delay/hop/load
  // histograms need the recorder (enable_recorder), which a telemetry-armed
  // harness installs before traffic. Without one they export zero counts.
  for (const net::NodeId id : sim.graph().alive_nodes()) {
    out.distributions.degree.observe(
        static_cast<double>(sim.graph().degree(id)));
  }
  if (const sim::RunRecorder* recorder = sim.recorder()) {
    for (std::size_t i = 0; i < kNumMessageClasses; ++i) {
      out.distributions.delay[i] =
          recorder->delay(static_cast<sim::MessageClass>(i));
    }
    out.distributions.walk_hops = recorder->walk_hops();
    recorder->fill_load_histograms(sim.graph(), out.distributions.node_messages,
                                   out.distributions.node_bytes);
    out.max_node_messages = recorder->max_node_messages();
    out.max_node_bytes = recorder->max_node_bytes();
  }
  return out;
}

SimCounters collect(const net::Graph& graph) {
  SimCounters out;
  out.replicas = 1;
  const net::Graph::Counters& counters = graph.counters();
  out.graph_joins = counters.joins;
  out.graph_leaves = counters.leaves;
  out.graph_chunk_recycles = counters.chunk_recycles;
  for (const net::NodeId id : graph.alive_nodes()) {
    out.distributions.degree.observe(static_cast<double>(graph.degree(id)));
  }
  return out;
}

}  // namespace p2pse::obs
