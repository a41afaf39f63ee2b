#pragma once
// CYCLON view-shuffling membership management (Voulgaris, Gavidia, van
// Steen — JNSM'05, the paper's reference [19] and the practical way to
// build/maintain the unstructured overlays the study runs on, §IV-A [10]).
//
// Each node keeps a partial view of `view_size` (neighbor, age) entries.
// Periodically every node: ages its entries, selects the OLDEST entry as the
// shuffle target, sends a subset of `shuffle_length` entries (replacing one
// with a fresh self-pointer), and merges the peer's reply, evicting the
// entries it sent away first. The emergent directed graph has strong
// in-degree balance and, crucially for this study, HEALS after churn —
// unlike the paper's static wiring where "nodes that have lost one or
// several neighbors do not create new links".
//
// The maintained view is materialized into a net::Graph (union of directed
// views, made bidirectional) so every estimator can run unchanged on a
// CYCLON-maintained overlay; `bench/ablation_cyclon` contrasts the two
// regimes under the shrinking scenario.

#include <cstdint>
#include <vector>

#include "p2pse/net/graph.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::net {

struct CyclonConfig {
  std::size_t view_size = 10;      ///< partial-view capacity per node
  std::size_t shuffle_length = 4;  ///< entries exchanged per shuffle
};

class CyclonOverlay {
 public:
  /// Boots `nodes` members wired in a random ring plus random fill so the
  /// initial directed graph is connected.
  CyclonOverlay(std::size_t nodes, CyclonConfig config,
                support::RngStream rng);

  /// One protocol round: every live member performs one shuffle as
  /// initiator. Each shuffle costs 2 messages (request + reply), counted in
  /// `messages()`.
  void run_round();

  /// Removes a member. Dead pointers linger in others' views until aged out
  /// and are skipped when dialing (timeout behaviour).
  void remove_member(std::uint32_t id);

  [[nodiscard]] std::size_t size() const noexcept { return alive_count_; }
  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }
  [[nodiscard]] const CyclonConfig& config() const noexcept { return config_; }

  /// View of a member as plain ids (dead entries included until aged out).
  [[nodiscard]] std::vector<std::uint32_t> view_of(std::uint32_t id) const;

  /// Materializes the current directed views into an undirected net::Graph
  /// over live members only (dead view entries are dropped). Node ids are
  /// remapped densely; the mapping is returned via `original_ids` when
  /// non-null.
  [[nodiscard]] Graph materialize(
      std::vector<std::uint32_t>* original_ids = nullptr) const;

 private:
  struct Entry {
    std::uint32_t node = 0;
    std::uint32_t age = 0;
  };
  struct Member {
    std::vector<Entry> view;
    bool alive = false;
  };

  void shuffle_from(std::uint32_t initiator);
  void merge_view(Member& member, std::uint32_t self,
                  const std::vector<Entry>& incoming,
                  const std::vector<std::size_t>& sent_slots);
  [[nodiscard]] bool contains(const Member& member, std::uint32_t node) const;

  CyclonConfig config_;
  std::vector<Member> members_;
  std::vector<std::uint32_t> alive_ids_;
  std::size_t alive_count_ = 0;
  std::uint64_t messages_ = 0;
  support::RngStream rng_;
};

}  // namespace p2pse::net
