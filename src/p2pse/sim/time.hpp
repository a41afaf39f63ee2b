#pragma once
// Simulated time: rounds for gossip protocols, scenario time units for churn.

namespace p2pse::sim {

using Time = double;

}  // namespace p2pse::sim
