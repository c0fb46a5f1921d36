// Hierarchical weighted fair queueing — an executable "Recursive Congestion
// Shares" prototype (paper §5.3, ref [77]).
//
// The paper's closing argument: if CCA dynamics no longer set bandwidth
// allocations, the Internet needs a new model, and it proposes shares that
// follow the network's *economic arrangements* recursively — an ISP divides
// a link among customers by what they pay, a customer divides its share
// among its services, and so on. This qdisc realizes that model: classes
// form a weight-annotated tree; at every level, service divides among
// backlogged children in weight proportion, and unused share falls through
// to busy siblings (work conservation).
//
// The scheduler is hierarchical Start-time Fair Queueing (Goyal et al.):
// each interior node serves the active child with the smallest virtual start
// tag, and a child consuming service L advances its tags by L/weight. SFQ's
// tag algebra is robust to the rapid empty/refill churn closed-loop TCP
// traffic produces — deficit-round-robin variants leak or gift service on
// every churn event, which measurably skews class shares.
//
// Leaves are selected per packet by a classifier function, so the same tree
// can encode ISP->subscriber->app, org->site->flow, or any other recursive
// economic arrangement. Each leaf also owns a private buffer budget sized by
// its end-to-end share: one class's burst can never evict another's packets.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "queue/packet_fifo.hpp"
#include "sim/qdisc.hpp"

namespace ccc::queue {

/// Identifies a class (interior or leaf) in the share tree.
using ClassId = std::uint32_t;
inline constexpr ClassId kRootClass = 0;

class HierarchicalFairQueue : public sim::Qdisc {
 public:
  /// Maps a packet to the leaf class that owns it. Packets mapping to an
  /// unknown or non-leaf class are dropped (and counted).
  using Classifier = std::function<ClassId(const sim::Packet&)>;

  /// `capacity_bytes`: total buffer, divided among leaves in proportion to
  /// their end-to-end weight shares.
  HierarchicalFairQueue(ByteCount capacity_bytes, Classifier classifier);

  /// Adds a class under `parent` with proportional `weight` (> 0).
  /// The root (kRootClass) always exists. Returns the new class id.
  /// Throws std::invalid_argument on unknown parent or non-positive weight.
  ClassId add_class(ClassId parent, double weight, std::string name = {});

  bool enqueue(const sim::Packet& pkt, Time now) override;
  std::optional<sim::Packet> dequeue(Time now) override;
  [[nodiscard]] Time next_ready(Time now) const override;
  [[nodiscard]] ByteCount backlog_bytes() const override { return nodes_[kRootClass].backlog; }
  [[nodiscard]] std::size_t backlog_packets() const override { return backlog_packets_; }

  /// Bytes dequeued per class (includes descendants' traffic for interior
  /// classes) — the observable the RCS bench reports.
  [[nodiscard]] ByteCount bytes_served(ClassId cls) const;
  /// Packets whose classifier result named no known leaf.
  [[nodiscard]] std::uint64_t unclassified_drops() const { return unclassified_drops_; }
  [[nodiscard]] const std::string& class_name(ClassId cls) const;
  /// A leaf's end-to-end weight share (product of weight fractions on its
  /// path) — also the fraction of the buffer it owns.
  [[nodiscard]] double leaf_share(ClassId leaf) const;

 private:
  struct Node {
    ClassId parent{kRootClass};
    double weight{1.0};
    std::string name;
    std::vector<ClassId> children;
    bool is_leaf{true};  // until a child is added

    // SFQ state. As a server: vtime. As a child: [start, finish) tags of the
    // service quantum in progress.
    double vtime{0.0};
    double start{0.0};
    double finish{0.0};
    bool active{false};
    std::vector<ClassId> active_children;

    ByteCount backlog{0};  ///< bytes in this subtree
    ByteCount served{0};

    // Leaf-only FIFO and its cached buffer budget (0 = stale).
    PacketFifo fifo;
    ByteCount budget{0};
  };

  /// Walks up from `leaf`, activating each inactive node in its parent's
  /// active set with a resynchronized start tag.
  void activate_path(ClassId leaf);
  /// Min-start-tag selection from `node` down to a leaf; kRootClass if none.
  /// Pure: mutates nothing (stale children are skipped, not retired).
  [[nodiscard]] ClassId select_leaf(ClassId node) const;
  [[nodiscard]] ByteCount leaf_budget(ClassId leaf);

  ByteCount capacity_bytes_;
  Classifier classifier_;
  std::size_t backlog_packets_{0};
  std::uint64_t unclassified_drops_{0};
  std::vector<Node> nodes_;  // index == ClassId
};

}  // namespace ccc::queue
