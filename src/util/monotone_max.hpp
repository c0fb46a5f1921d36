// Sliding-window extremum over keyed samples (the monotone-deque technique).
//
// Samples arrive with non-decreasing keys (e.g. a round counter, an ACK
// time) and leave from the front once their key falls out of the window. A
// sample is dropped on arrival of a later one at least as good: the later
// sample outlives it under any front-eviction rule that respects key order,
// so it can never again be the extremum. The stored values are therefore
// strictly ordered from front to back and the window's extremum is the
// front, in O(1); each sample is pushed and popped at most once (amortised
// O(1) per push).
//
// The result is exact, not an approximation, whenever each call's eviction
// predicate is monotone in the key at the time of that call — the window
// may shrink and grow between calls (Copa's max(srtt/2, 1 ms)). Evictions
// remove exactly the samples a naive deque would, and a dropped sample is
// dominated by a later, longer-lived one that is still retained.
//
// MonotoneMax orders values by `Less` (std::less: the maximum); MonotoneMin
// is the same class under std::greater. BBR's bandwidth filter, Nimbus's
// capacity window and Copa's two RTT windows all use it.
#pragma once

#include <cassert>
#include <cstddef>
#include <deque>
#include <functional>

namespace ccc::util {

template <class Key, class Value, class Less = std::less<Value>>
class MonotoneMax {
 public:
  /// Appends a sample. Precondition: `key` is not below the last pushed key.
  void push(Key key, Value value) {
    assert(samples_.empty() || !(key < samples_.back().key));
    while (!samples_.empty() && !Less{}(value, samples_.back().value)) samples_.pop_back();
    samples_.push_back({key, value});
  }

  /// Pops samples from the front while `expired(front key)` holds. The
  /// predicate must be monotone in the key (true for a prefix of keys).
  template <class Pred>
  void evict_front_while(Pred expired) {
    while (!samples_.empty() && expired(samples_.front().key)) samples_.pop_front();
  }

  /// Best value (the maximum under `Less`) over every sample pushed and not
  /// yet evicted, or `if_empty`.
  [[nodiscard]] Value best_or(Value if_empty) const {
    return samples_.empty() ? if_empty : samples_.front().value;
  }
  /// Samples retained (at most the number in the window).
  [[nodiscard]] std::size_t size() const { return samples_.size(); }

 private:
  struct Sample {
    Key key;
    Value value;
  };
  std::deque<Sample> samples_;
};

/// Sliding-window minimum: best_or() is the smallest retained value.
template <class Key, class Value>
using MonotoneMin = MonotoneMax<Key, Value, std::greater<Value>>;

}  // namespace ccc::util
