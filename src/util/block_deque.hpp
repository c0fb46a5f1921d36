// A double-ended queue of fixed-size blocks: the storage behind every
// per-packet queue in the simulator (qdisc FIFOs, the packet pool's slab,
// the sender's scoreboard and delivery history, FQ-CoDel's bucket lists).
//
// Elements live in blocks of a power-of-two element count, at most
// kBlockBytes (512) bytes each, reached through a vector of block pointers.
// Element i sits at position p = first + i, in block p >> shift at slot
// p & mask, so indexing is an add, a shift and a mask — no division, unlike
// libstdc++'s deque. Blocks never relocate, so a reference to an element
// stays valid until that element is popped, whatever is pushed meanwhile.
//
// The pointer vector holds, in order: null slots left by retired front
// blocks, the blocks in use, and spare blocks. Allocation:
//   - nothing until the first push;
//   - a block emptied at the front moves to the spares, and one emptied at
//     the back simply becomes the first spare; a push that needs a block
//     takes a spare. Spares are capped at the number of blocks in use: past
//     that, an emptied block is freed. So a queue holds at most about twice
//     the blocks its current depth needs, a queue at steady depth never
//     calls the allocator, and one whose depth swings (a qdisc backlog, a
//     congestion window) allocates only to grow past twice the depth it
//     last shrank to;
//   - when the queue drains, it frees every block but one: an empty queue
//     holds at most one block (libstdc++'s deque holds one even before its
//     first push).
//
// The null slots are compacted away only when the vector is full and they
// are at least half of it, so compaction is amortised O(1) per block.
//
// Iterators are random access and hold (queue, index): they survive
// push_back but not pop_front, pop_back or a move of the queue.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace ccc::util {

template <class T>
class BlockDeque {
 public:
  static constexpr std::size_t kBlockBytes = 512;
  /// Elements per block: the largest power of two whose block fits in
  /// kBlockBytes (at least one).
  static constexpr std::size_t kBlockElems =
      std::bit_floor(std::max<std::size_t>(1, kBlockBytes / sizeof(T)));

  template <bool Const>
  class Iter {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using reference = std::conditional_t<Const, const T&, T&>;
    using Owner = std::conditional_t<Const, const BlockDeque, BlockDeque>;

    Iter() = default;
    Iter(Owner* q, difference_type i) : q_{q}, i_{i} {}
    /// iterator -> const_iterator.
    template <bool C = Const, class = std::enable_if_t<C>>
    Iter(const Iter<false>& other) : q_{other.q_}, i_{other.i_} {}

    reference operator*() const { return (*q_)[static_cast<std::size_t>(i_)]; }
    pointer operator->() const { return &**this; }
    reference operator[](difference_type n) const { return *(*this + n); }

    Iter& operator++() { ++i_; return *this; }
    Iter operator++(int) { Iter t = *this; ++i_; return t; }
    Iter& operator--() { --i_; return *this; }
    Iter operator--(int) { Iter t = *this; --i_; return t; }
    Iter& operator+=(difference_type n) { i_ += n; return *this; }
    Iter& operator-=(difference_type n) { i_ -= n; return *this; }
    friend Iter operator+(Iter it, difference_type n) { return it += n; }
    friend Iter operator+(difference_type n, Iter it) { return it += n; }
    friend Iter operator-(Iter it, difference_type n) { return it -= n; }
    friend difference_type operator-(const Iter& a, const Iter& b) { return a.i_ - b.i_; }
    friend bool operator==(const Iter& a, const Iter& b) { return a.i_ == b.i_; }
    friend auto operator<=>(const Iter& a, const Iter& b) { return a.i_ <=> b.i_; }

   private:
    friend class Iter<!Const>;
    Owner* q_{nullptr};
    difference_type i_{0};
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;
  using value_type = T;

  BlockDeque() = default;
  BlockDeque(BlockDeque&& other) noexcept
      : blocks_{std::exchange(other.blocks_, {})},
        first_{std::exchange(other.first_, 0)},
        size_{std::exchange(other.size_, 0)} {}
  BlockDeque& operator=(BlockDeque&& other) noexcept {
    if (this != &other) {
      release_all();
      blocks_ = std::exchange(other.blocks_, {});
      first_ = std::exchange(other.first_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  BlockDeque(const BlockDeque&) = delete;
  BlockDeque& operator=(const BlockDeque&) = delete;
  ~BlockDeque() { release_all(); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    return *slot(first_ + i);
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return *slot(first_ + i);
  }
  [[nodiscard]] T& front() { return (*this)[0]; }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  [[nodiscard]] iterator begin() { return {this, 0}; }
  [[nodiscard]] iterator end() { return {this, static_cast<std::ptrdiff_t>(size_)}; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, static_cast<std::ptrdiff_t>(size_)}; }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <class... Args>
  T& emplace_back(Args&&... args) {
    // The slot's block is a spare, or past the vector's end and allocated.
    if (((first_ + size_) >> kShift) == blocks_.size()) blocks_.push_back(allocate());
    T* s = std::construct_at(slot(first_ + size_), std::forward<Args>(args)...);
    ++size_;
    return *s;
  }

  /// Precondition: !empty().
  void pop_front() {
    assert(size_ > 0);
    const std::size_t p = first_++;
    std::destroy_at(slot(p));
    if (--size_ == 0) return drained(p);
    if ((first_ & kMask) == 0) retire_front(p >> kShift);
  }

  /// Precondition: !empty(). An emptied back block stays where it is, as
  /// the first spare; spares past the cap are then freed from the end.
  void pop_back() {
    assert(size_ > 0);
    const std::size_t p = first_ + --size_;
    std::destroy_at(slot(p));
    if (size_ == 0) return drained(p);
    if ((p & kMask) == 0) trim_spares();
  }

 private:
  static constexpr std::size_t kShift = std::countr_zero(kBlockElems);
  static constexpr std::size_t kMask = kBlockElems - 1;

  [[nodiscard]] T* slot(std::size_t p) const { return blocks_[p >> kShift] + (p & kMask); }

  static T* allocate() { return std::allocator<T>{}.allocate(kBlockElems); }
  static void deallocate(T* b) { std::allocator<T>{}.deallocate(b, kBlockElems); }

  /// Moves the emptied front block `k` to the spares at the vector's end,
  /// first compacting the null slots if the vector is full and they are at
  /// least half of it.
  void retire_front(std::size_t k) {
    T* b = std::exchange(blocks_[k], nullptr);
    const std::size_t dead = k + 1;
    if (blocks_.size() == blocks_.capacity() && 2 * dead >= blocks_.size()) {
      blocks_.erase(blocks_.begin(), blocks_.begin() + static_cast<std::ptrdiff_t>(dead));
      first_ -= dead << kShift;
    }
    blocks_.push_back(b);
    trim_spares();
  }

  /// Frees spares from the vector's end until they are no more than the
  /// blocks in use. Precondition: !empty().
  void trim_spares() {
    const std::size_t last = (first_ + size_ - 1) >> kShift;
    const std::size_t in_use = last - (first_ >> kShift) + 1;
    while (blocks_.size() - last - 1 > in_use) {
      deallocate(blocks_.back());
      blocks_.pop_back();
    }
  }

  /// The last element, at position `p`, was just popped: keep its block as
  /// the only one and free the rest.
  void drained(std::size_t p) {
    T* keep = blocks_[p >> kShift];
    for (T* b : blocks_) {
      if (b != nullptr && b != keep) deallocate(b);
    }
    blocks_.assign(1, keep);
    first_ = 0;
  }

  void release_all() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (std::size_t i = 0; i < size_; ++i) std::destroy_at(slot(first_ + i));
    }
    for (T* b : blocks_) {
      if (b != nullptr) deallocate(b);
    }
    blocks_.clear();
    first_ = 0;
    size_ = 0;
  }

  /// Null slots (retired front blocks, not yet compacted), then the blocks
  /// in use from first_'s on, then spares.
  std::vector<T*> blocks_;
  std::size_t first_{0};  ///< position of the front element
  std::size_t size_{0};
};

}  // namespace ccc::util
