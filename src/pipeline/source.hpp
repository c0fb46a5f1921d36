// Source stage of the passive-analysis pipeline: where flows come from.
//
// A FlowSource hands out store::FlowView's by index. Shard workers pull
// disjoint contiguous index ranges, so a source must be safe for concurrent
// const access — trivially true for both implementations (a span over an
// immutable dataset; mmap'd read-only columns).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "mlab/ndt_record.hpp"
#include "store/flow_store.hpp"

namespace ccc::pipeline {

class FlowSource {
 public:
  virtual ~FlowSource() = default;
  [[nodiscard]] virtual std::size_t size() const = 0;
  /// Precondition: i < size(). Must be thread-safe (const, no caching).
  [[nodiscard]] virtual store::FlowView flow(std::size_t i) const = 0;
  /// Hint that flows [begin, end) will be read soon, so a backing store can
  /// stage their pages ahead of the faults (see FlowStoreReader::willneed).
  /// Thread-safe like flow(); the default is a no-op (in-memory sources are
  /// already resident). Out-of-range indices are clamped, not errors.
  virtual void prefetch(std::size_t begin, std::size_t end) const {
    (void)begin;
    (void)end;
  }
};

/// The in-memory path: wraps an existing std::vector<NdtRecord> dataset
/// (synthetic or CSV-loaded), e.g. fig2's paper-scale dataset.
class MemorySource final : public FlowSource {
 public:
  explicit MemorySource(std::span<const mlab::NdtRecord> dataset) : dataset_{dataset} {}

  [[nodiscard]] std::size_t size() const override { return dataset_.size(); }
  [[nodiscard]] store::FlowView flow(std::size_t i) const override {
    return store::FlowView::from_record(dataset_[i]);
  }

 private:
  std::span<const mlab::NdtRecord> dataset_;
};

/// The at-scale path: one or more ccfs shards presented as a single
/// concatenated index space (shard k's flows follow shard k-1's). Readers
/// are borrowed — the caller keeps them alive for the source's lifetime.
class StoreSource final : public FlowSource {
 public:
  StoreSource() = default;
  explicit StoreSource(const store::FlowStoreReader& reader) { add(reader); }

  void add(const store::FlowStoreReader& reader) {
    readers_.push_back(&reader);
    prefix_.push_back(prefix_.back() + reader.size());
  }

  [[nodiscard]] std::size_t size() const override { return prefix_.back(); }
  [[nodiscard]] store::FlowView flow(std::size_t i) const override {
    // Find the shard holding global index i: first prefix entry > i.
    const auto it = std::upper_bound(prefix_.begin() + 1, prefix_.end(), i);
    const auto shard = static_cast<std::size_t>(it - prefix_.begin() - 1);
    return readers_[shard]->at(i - prefix_[shard]);
  }
  void prefetch(std::size_t begin, std::size_t end) const override {
    end = std::min(end, prefix_.back());
    while (begin < end) {
      // Forward each shard its slice of the global [begin, end) range.
      const auto it = std::upper_bound(prefix_.begin() + 1, prefix_.end(), begin);
      const auto shard = static_cast<std::size_t>(it - prefix_.begin() - 1);
      const std::size_t local = begin - prefix_[shard];
      const std::size_t take = std::min(end, prefix_[shard + 1]) - begin;
      readers_[shard]->willneed(local, take);
      begin += take;
    }
  }

 private:
  std::vector<const store::FlowStoreReader*> readers_;
  std::vector<std::size_t> prefix_{0};
};

}  // namespace ccc::pipeline
