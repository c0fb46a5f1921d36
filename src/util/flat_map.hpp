// A hash map from 64-bit keys to small trivially copyable values, in one
// flat open-addressing table: the flow demux's routes and the fair queues'
// key -> sub-queue slot maps.
//
// The table has a power-of-two slot count, a multiplicative (Fibonacci)
// hash taken from the product's high bits, and linear probing. A lookup is
// a multiply, a shift and usually one slot, with no integer division;
// inserting allocates only when the table doubles (it stays at most half
// full), and erasing shifts the following run back, so churn leaves no
// tombstones behind. Any key is accepted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace ccc::util {

template <class V>
class FlatMap {
  static_assert(std::is_trivially_copyable_v<V>, "FlatMap stores values by copy");

 public:
  FlatMap() : slots_(kMinSlots) {}

  /// The value stored under `key`, or nullptr. The pointer stays valid until
  /// the next insertion or erase.
  [[nodiscard]] const V* find(std::uint64_t key) const {
    const Slot& s = slots_[probe(key)];
    return s.full ? &s.value : nullptr;
  }
  [[nodiscard]] bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  /// Stores `value` under `key` unless the key is present. Returns the value
  /// now stored under `key` (valid as find()'s) and whether it was inserted.
  std::pair<V*, bool> try_emplace(std::uint64_t key, V value);

  /// Stores `value` under `key`, replacing any value stored there.
  void insert_or_assign(std::uint64_t key, V value) {
    auto [stored, inserted] = try_emplace(key, value);
    if (!inserted) *stored = value;
  }

  /// Removes `key`. Returns whether it was present.
  bool erase(std::uint64_t key);

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::uint64_t key{0};
    V value{};
    bool full{false};
  };
  static constexpr std::size_t kMinSlots = 16;

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  /// The key's first probe: the top log2(slots) bits of key * 2^64/phi.
  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E37'79B9'7F4A'7C15ull) >> shift_);
  }
  /// The slot holding `key`, else the empty slot that ends its probe run.
  [[nodiscard]] std::size_t probe(std::uint64_t key) const {
    std::size_t i = home(key);
    while (slots_[i].full && slots_[i].key != key) i = (i + 1) & mask();
    return i;
  }
  /// Doubles the table and re-inserts every entry.
  void grow();

  std::vector<Slot> slots_;
  int shift_{64 - 4};  ///< 64 - log2(slots_.size())
  std::size_t size_{0};
};

template <class V>
std::pair<V*, bool> FlatMap<V>::try_emplace(std::uint64_t key, V value) {
  std::size_t i = probe(key);
  if (slots_[i].full) return {&slots_[i].value, false};
  if (2 * (size_ + 1) > slots_.size()) {
    grow();
    i = probe(key);
  }
  slots_[i] = {key, value, true};
  ++size_;
  return {&slots_[i].value, true};
}

template <class V>
bool FlatMap<V>::erase(std::uint64_t key) {
  std::size_t i = probe(key);
  if (!slots_[i].full) return false;
  --size_;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless their home lies cyclically in (hole, j], where they must stay.
  for (std::size_t j = (i + 1) & mask(); slots_[j].full; j = (j + 1) & mask()) {
    const std::size_t h = home(slots_[j].key);
    const bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
    if (!stays) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Slot{};
  return true;
}

template <class V>
void FlatMap<V>::grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  --shift_;
  for (const Slot& s : old) {
    if (s.full) slots_[probe(s.key)] = s;
  }
}

}  // namespace ccc::util
