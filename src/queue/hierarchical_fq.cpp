#include "queue/hierarchical_fq.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace ccc::queue {

HierarchicalFairQueue::HierarchicalFairQueue(ByteCount capacity_bytes, Classifier classifier)
    : capacity_bytes_{capacity_bytes}, classifier_{std::move(classifier)} {
  assert(capacity_bytes_ > 0);
  assert(classifier_ != nullptr);
  nodes_.push_back(Node{});  // the root
  nodes_[kRootClass].name = "root";
}

ClassId HierarchicalFairQueue::add_class(ClassId parent, double weight, std::string name) {
  if (parent >= nodes_.size()) throw std::invalid_argument{"hfq: unknown parent class"};
  if (!nodes_[parent].fifo.empty()) {
    throw std::invalid_argument{"hfq: parent already carries leaf traffic"};
  }
  if (weight <= 0.0) throw std::invalid_argument{"hfq: weight must be positive"};
  const auto id = static_cast<ClassId>(nodes_.size());
  Node node;
  node.parent = parent;
  node.weight = weight;
  node.name = name.empty() ? "class-" + std::to_string(id) : std::move(name);
  nodes_.push_back(std::move(node));
  nodes_[parent].children.push_back(id);
  nodes_[parent].is_leaf = false;
  // Topology changed: every cached leaf budget is stale.
  for (auto& n : nodes_) n.budget = 0;
  return id;
}

double HierarchicalFairQueue::leaf_share(ClassId leaf) const {
  double share = 1.0;
  for (ClassId n = leaf; n != kRootClass; n = nodes_[n].parent) {
    double sibling_weights = 0.0;
    for (ClassId s : nodes_[nodes_[n].parent].children) sibling_weights += nodes_[s].weight;
    share *= nodes_[n].weight / sibling_weights;
  }
  return share;
}

ByteCount HierarchicalFairQueue::leaf_budget(ClassId leaf) {
  Node& node = nodes_[leaf];
  if (node.budget == 0) {
    node.budget = std::max<ByteCount>(
        static_cast<ByteCount>(static_cast<double>(capacity_bytes_) * leaf_share(leaf)),
        4 * 1514);
  }
  return node.budget;
}

ByteCount HierarchicalFairQueue::bytes_served(ClassId cls) const {
  return cls < nodes_.size() ? nodes_[cls].served : 0;
}

const std::string& HierarchicalFairQueue::class_name(ClassId cls) const {
  static const std::string kUnknown = "?";
  return cls < nodes_.size() ? nodes_[cls].name : kUnknown;
}

void HierarchicalFairQueue::activate_path(ClassId leaf) {
  // Walk to the root, inserting each inactive node into its parent's active
  // set. SFQ resync: a (re)activating child starts no earlier than the
  // server's current virtual time — it can neither claim credit from its
  // idle period nor be starved for past overuse.
  for (ClassId n = leaf; n != kRootClass; n = nodes_[n].parent) {
    Node& node = nodes_[n];
    if (node.active) break;  // ancestors are active by induction
    Node& parent = nodes_[node.parent];
    node.start = std::max(parent.vtime, node.finish);
    node.finish = node.start;  // no service charged yet this activation
    node.active = true;
    parent.active_children.push_back(n);
  }
}

bool HierarchicalFairQueue::enqueue(const sim::Packet& pkt, Time now) {
  ++stats_.enqueued_packets;  // offered (see QdiscStats contract)
  const ClassId cls = classifier_(pkt);
  if (cls == kRootClass || cls >= nodes_.size() || !nodes_[cls].is_leaf) {
    ++unclassified_drops_;
    stats_.record_drop(pkt);
    return false;
  }
  // Per-leaf tail drop against the leaf's private buffer budget: classes
  // cannot evict each other's packets, so closed-loop flows in one class
  // never see loss caused by a burst in another.
  if (nodes_[cls].backlog + pkt.size_bytes > leaf_budget(cls)) {
    stats_.record_drop(pkt);
    return false;
  }
  nodes_[cls].fifo.push(pkt, now);
  for (ClassId n = cls;; n = nodes_[n].parent) {
    nodes_[n].backlog += pkt.size_bytes;
    if (n == kRootClass) break;
  }
  ++backlog_packets_;
  activate_path(cls);
  return true;
}

ClassId HierarchicalFairQueue::select_leaf(ClassId node_id) const {
  const Node& node = nodes_[node_id];
  if (node.is_leaf) return node.fifo.empty() ? kRootClass : node_id;

  ClassId best = kRootClass;
  double best_start = std::numeric_limits<double>::infinity();
  for (ClassId c : node.active_children) {
    const Node& child = nodes_[c];
    if (child.backlog <= 0) continue;  // stale entry; retired on dequeue
    if (child.start < best_start) {
      best_start = child.start;
      best = c;
    }
  }
  if (best == kRootClass) return kRootClass;
  return select_leaf(best);
}

std::optional<sim::Packet> HierarchicalFairQueue::dequeue(Time /*now*/) {
  const ClassId leaf = select_leaf(kRootClass);
  if (leaf == kRootClass) return std::nullopt;

  const sim::Packet pkt = nodes_[leaf].fifo.pop_front();

  // Charge the packet along the path: SFQ tag advance at every (server,
  // child) edge, plus backlog/served accounting; retire emptied nodes.
  for (ClassId n = leaf;; n = nodes_[n].parent) {
    Node& node = nodes_[n];
    node.backlog -= pkt.size_bytes;
    node.served += pkt.size_bytes;
    if (n == kRootClass) break;
    Node& parent = nodes_[node.parent];
    parent.vtime = std::max(parent.vtime, node.start);
    node.finish = node.start + static_cast<double>(pkt.size_bytes) / node.weight;
    node.start = node.finish;
    if (node.backlog <= 0) {
      node.active = false;
      auto& siblings = parent.active_children;
      siblings.erase(std::find(siblings.begin(), siblings.end(), n));
    }
  }
  --backlog_packets_;
  ++stats_.dequeued_packets;
  return pkt;
}

Time HierarchicalFairQueue::next_ready(Time now) const {
  return backlog_packets_ == 0 ? Time::never() : now;
}

}  // namespace ccc::queue
