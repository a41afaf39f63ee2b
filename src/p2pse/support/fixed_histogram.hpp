#pragma once
// Fixed-bucket histogram for the deterministic run-stats path. It holds
// ONLY merge-order-invariant state: u64 bucket counts. Replica blocks merge
// in thread-completion order, and floating-point addition is not
// associative — so a histogram that must be byte-identical across
// --threads carries no floating-point accumulator (no running `sum`) at
// all.
//
// `bounds` are ascending upper edges; an observation lands in the first
// bucket whose bound is >= the value, or in the overflow bucket past the
// last edge. Two histograms merge only when their bounds match exactly —
// the canonical bounds are compile-time constants (sim/run_recorder.hpp),
// so a mismatch is a programming error, reported loudly.

#include <cstdint>
#include <vector>

namespace p2pse::support {

class FixedHistogram {
 public:
  /// An empty histogram (no bounds, one overflow bucket). Placeholder for
  /// containers; merging into it adopts the other side's bounds.
  FixedHistogram() : buckets_(1, 0) {}

  /// `upper_bounds` must be strictly ascending (throws otherwise).
  explicit FixedHistogram(std::vector<double> upper_bounds);

  void observe(double value) noexcept;

  /// Elementwise bucket/count addition. Commutative and associative, so
  /// merged totals are invariant under replica completion order. Throws
  /// std::logic_error when the bounds differ (and neither side is empty).
  FixedHistogram& operator+=(const FixedHistogram& other);

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  [[nodiscard]] bool operator==(const FixedHistogram& other) const noexcept {
    return bounds_ == other.bounds_ && buckets_ == other.buckets_ &&
           count_ == other.count_;
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

}  // namespace p2pse::support
