// Sliding-window maximum over keyed samples (the monotone-deque technique).
//
// Samples arrive with non-decreasing keys (e.g. a round counter) and leave
// from the front once their key falls out of the window. A sample is dropped
// on arrival of a later one at least as large: the later sample outlives it
// under any front-eviction rule that respects key order, so it can never
// again be the maximum. The stored values therefore strictly decrease from
// front to back and the window's maximum is the front, in O(1); each sample
// is pushed and popped at most once (amortised O(1) per push).
#pragma once

#include <cassert>
#include <cstddef>
#include <deque>

namespace ccc::util {

template <class Key, class Value>
class MonotoneMax {
 public:
  /// Appends a sample. Precondition: `key` is not below the last pushed key.
  void push(Key key, Value value) {
    assert(samples_.empty() || !(key < samples_.back().key));
    while (!samples_.empty() && samples_.back().value <= value) samples_.pop_back();
    samples_.push_back({key, value});
  }

  /// Pops samples from the front while `expired(front key)` holds. The
  /// predicate must be monotone in the key (true for a prefix of keys).
  template <class Pred>
  void evict_front_while(Pred expired) {
    while (!samples_.empty() && expired(samples_.front().key)) samples_.pop_front();
  }

  /// Maximum over every sample pushed and not yet evicted, or `if_empty`.
  [[nodiscard]] Value max_or(Value if_empty) const {
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

}  // namespace ccc::util
