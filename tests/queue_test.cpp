// Unit tests for queueing disciplines.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "queue/codel.hpp"
#include "queue/drop_tail.hpp"
#include "queue/drr_fair_queue.hpp"
#include "queue/fq_codel.hpp"
#include "queue/hierarchical_fq.hpp"
#include "queue/packet_fifo.hpp"
#include "queue/per_user_isolation.hpp"
#include "queue/pie.hpp"
#include "queue/token_bucket.hpp"
#include "runner/experiment_runner.hpp"
#include "util/rng.hpp"

namespace ccc::queue {
namespace {

sim::Packet pkt(sim::FlowId flow, ByteCount size, sim::UserId user = 1) {
  sim::Packet p;
  p.flow = flow;
  p.user = user;
  p.size_bytes = size;
  return p;
}

// ---------- PacketFifo ----------

TEST(PacketFifo, MatchesDequeModelUnderRandomOps) {
  // Seeded push / pop_front / pop_back churn against a std::deque model.
  // Phases alternate between growing and draining, so the FIFO empties and
  // refills many times.
  const auto check = [](const PacketFifo& fifo, const std::deque<sim::Packet>& model,
                        ByteCount model_bytes) {
    ASSERT_EQ(fifo.empty(), model.empty());
    ASSERT_EQ(fifo.size(), model.size());
    ASSERT_EQ(fifo.bytes(), model_bytes);
    if (model.empty()) return;
    ASSERT_EQ(fifo.front().seq, model.front().seq);
    ASSERT_EQ(fifo.back().seq, model.back().seq);
  };
  const PacketFifo never_pushed;
  ASSERT_NO_FATAL_FAILURE(check(never_pushed, {}, 0));

  Rng rng{77};
  PacketFifo fifo;
  std::deque<sim::Packet> model;
  ByteCount model_bytes = 0;
  for (int op = 0; op < 20'000; ++op) {
    const Time now = Time::us(op);
    const double push_p = (op / 1000) % 2 == 0 ? 0.7 : 0.3;
    if (model.empty() || rng.chance(push_p)) {
      auto p = pkt(1, rng.uniform_int(40, 1500));
      p.seq = op;
      fifo.push(p, now);
      p.enqueued_at = now;
      model.push_back(p);
      model_bytes += p.size_bytes;
    } else {
      const bool front = rng.chance(0.7);
      const sim::Packet expected = front ? model.front() : model.back();
      const sim::Packet got = front ? fifo.pop_front() : fifo.pop_back();
      if (front) {
        model.pop_front();
      } else {
        model.pop_back();
      }
      model_bytes -= expected.size_bytes;
      ASSERT_EQ(got.seq, expected.seq) << "op " << op;
      ASSERT_EQ(got.enqueued_at, expected.enqueued_at) << "op " << op;
    }
    ASSERT_NO_FATAL_FAILURE(check(fifo, model, model_bytes)) << "op " << op;
  }
}

// ---------- splitmix64 users ----------

TEST(SplitMix64, PinsSeedsAndBucketMaps) {
  // Golden values: the sweep's per-cell seeds and the FQ-CoDel flow->bucket
  // map all derive from util::splitmix64, and any change to them moves
  // figure bytes.
  EXPECT_EQ(util::splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(runner::derive_seed(0, 0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(runner::derive_seed(42, 0), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(runner::derive_seed(42, 1), 0x28efe333b266f103ULL);
  EXPECT_EQ(runner::derive_seed(0x5eed, 7), 0x1289a69805c125b1ULL);
  EXPECT_EQ(runner::derive_seed(~0ULL, 3), 0x6d1db36ccba982d2ULL);

  FqCoDelConfig cfg;
  cfg.capacity_bytes = 10'000;
  cfg.hash_seed = 7;
  const FqCoDelQueue fq{cfg};
  const std::vector<std::pair<sim::FlowId, std::uint32_t>> golden{
      {0, 471}, {1, 0}, {2, 858}, {3, 714}, {1000, 389}, {4'000'000'000u, 76},
  };
  for (const auto& [flow, bucket] : golden) {
    EXPECT_EQ(fq.bucket_of(flow), bucket) << "flow " << flow;
  }
}

// ---------- DropTail ----------

TEST(DropTail, FifoOrder) {
  DropTailQueue q{10000};
  for (int i = 0; i < 3; ++i) {
    auto p = pkt(1, 100);
    p.seq = i;
    q.enqueue(p, Time::zero());
  }
  for (int i = 0; i < 3; ++i) {
    auto out = q.dequeue(Time::zero());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->seq, i);
  }
  EXPECT_FALSE(q.dequeue(Time::zero()).has_value());
}

TEST(DropTail, DropsBeyondCapacity) {
  DropTailQueue q{250};
  EXPECT_TRUE(q.enqueue(pkt(1, 100), Time::zero()));
  EXPECT_TRUE(q.enqueue(pkt(1, 100), Time::zero()));
  EXPECT_FALSE(q.enqueue(pkt(1, 100), Time::zero()));
  EXPECT_EQ(q.stats().dropped_packets, 1u);
  EXPECT_EQ(q.backlog_bytes(), 200);
  EXPECT_EQ(q.backlog_packets(), 2u);
}

TEST(DropTail, NextReadyNowWhenBacklogged) {
  DropTailQueue q{1000};
  EXPECT_EQ(q.next_ready(Time::ms(5)), Time::never());
  q.enqueue(pkt(1, 100), Time::ms(5));
  EXPECT_EQ(q.next_ready(Time::ms(5)), Time::ms(5));
}

// ---------- DRR fair queue ----------

TEST(DrrFairQueue, ServesBackloggedFlowsEvenly) {
  DrrFairQueue q{1 << 20, FairnessKey::kPerFlow, 1514};
  // Two flows, 20 packets each: DRR may serve up to a quantum's worth per
  // visit, but running byte counts must never diverge by more than one
  // quantum, and totals must come out equal.
  for (int i = 0; i < 20; ++i) {
    q.enqueue(pkt(1, 1000), Time::zero());
    q.enqueue(pkt(2, 1000), Time::zero());
  }
  ByteCount served[3] = {0, 0, 0};
  int n = 0;
  while (auto p = q.dequeue(Time::zero())) {
    served[p->flow] += p->size_bytes;
    ++n;
    if (n <= 38) {  // while both flows remain backlogged
      EXPECT_LE(std::abs(served[1] - served[2]), 2 * 1514) << "after " << n << " dequeues";
    }
  }
  EXPECT_EQ(n, 40);
  EXPECT_EQ(served[1], served[2]);
}

TEST(DrrFairQueue, ByteFairWithUnequalPacketSizes) {
  DrrFairQueue q{1 << 20, FairnessKey::kPerFlow, 1514};
  // Flow 1 sends 1500B packets, flow 2 sends 500B packets. Equal byte share
  // means ~3 small packets per big packet.
  for (int i = 0; i < 10; ++i) q.enqueue(pkt(1, 1500), Time::zero());
  for (int i = 0; i < 30; ++i) q.enqueue(pkt(2, 500), Time::zero());
  ByteCount f1 = 0;
  ByteCount f2 = 0;
  // Serve the first 12000 bytes.
  ByteCount served = 0;
  while (served < 12000) {
    auto p = q.dequeue(Time::zero());
    ASSERT_TRUE(p.has_value());
    served += p->size_bytes;
    (p->flow == 1 ? f1 : f2) += p->size_bytes;
  }
  EXPECT_NEAR(static_cast<double>(f1) / static_cast<double>(f2), 1.0, 0.35);
}

TEST(DrrFairQueue, PerUserKeyGroupsFlows) {
  DrrFairQueue q{1 << 20, FairnessKey::kPerUser, 1514};
  // Users 1 and 2; user 1 has two flows. Per-user fairness: user 2's single
  // flow gets as much service as user 1's two flows combined.
  for (int i = 0; i < 8; ++i) {
    q.enqueue(pkt(11, 1000, 1), Time::zero());
    q.enqueue(pkt(12, 1000, 1), Time::zero());
    q.enqueue(pkt(21, 1000, 2), Time::zero());
  }
  ByteCount user1 = 0;
  ByteCount user2 = 0;
  ByteCount served = 0;
  while (served < 16000) {
    auto p = q.dequeue(Time::zero());
    ASSERT_TRUE(p.has_value());
    served += p->size_bytes;
    (p->user == 1 ? user1 : user2) += p->size_bytes;
  }
  EXPECT_NEAR(static_cast<double>(user1) / static_cast<double>(user2), 1.0, 0.3);
}

TEST(DrrFairQueue, BufferStealingDropsFromLongest) {
  DrrFairQueue q{5000, FairnessKey::kPerFlow, 1514};
  // Flow 1 floods; flow 2 sends a little. Flow 2's packets must survive.
  for (int i = 0; i < 40; ++i) q.enqueue(pkt(1, 1000), Time::zero());
  q.enqueue(pkt(2, 1000), Time::zero());
  q.enqueue(pkt(2, 1000), Time::zero());
  int f2 = 0;
  while (auto p = q.dequeue(Time::zero())) {
    if (p->flow == 2) ++f2;
  }
  EXPECT_EQ(f2, 2);
  EXPECT_GT(q.stats().dropped_packets, 30u);
}

TEST(DrrFairQueue, EmptyQueueForfeitsDeficit) {
  DrrFairQueue q{1 << 20, FairnessKey::kPerFlow, 1514};
  q.enqueue(pkt(1, 100), Time::zero());
  ASSERT_TRUE(q.dequeue(Time::zero()).has_value());
  EXPECT_EQ(q.active_queues(), 0u);
  EXPECT_EQ(q.backlog_packets(), 0u);
}

TEST(DrrFairQueue, QueueEmptiedByStealingForfeitsDeficit) {
  // Flow 1 is served once (514 bytes of deficit left), then buffer stealing
  // takes its last packet. When it sends again it must start from zero
  // deficit, like a queue that dequeue emptied: behind flow 4, which went
  // active just before it, it gets no packet out first.
  DrrFairQueue q{2'500, FairnessKey::kPerFlow, 1514};
  q.enqueue(pkt(1, 1000), Time::zero());
  q.enqueue(pkt(1, 1000), Time::zero());
  ASSERT_EQ(q.dequeue(Time::zero())->flow, 1u);
  q.enqueue(pkt(2, 900), Time::zero());
  q.enqueue(pkt(3, 900), Time::zero());  // 2,800 bytes: flow 1 (longest) loses its packet
  ASSERT_EQ(q.stats().dropped_packets, 1u);
  ASSERT_EQ(q.dequeue(Time::zero())->flow, 2u);
  ASSERT_EQ(q.dequeue(Time::zero())->flow, 3u);
  ASSERT_EQ(q.active_queues(), 0u);
  q.enqueue(pkt(4, 1000), Time::zero());
  q.enqueue(pkt(1, 500), Time::zero());
  // Both start a round short of deficit; flow 4 is ahead in the rotation.
  EXPECT_EQ(q.dequeue(Time::zero())->flow, 4u);
  EXPECT_EQ(q.dequeue(Time::zero())->flow, 1u);
}

TEST(DrrFairQueue, BufferStealingTieGoesToHighestKey) {
  // Flows 3 and 5 hold equal bytes when the buffer overflows. Whichever of
  // them went active first (and so sits first in the rotation), the higher
  // key pays.
  for (const bool hi_first : {true, false}) {
    DrrFairQueue q{4'000, FairnessKey::kPerFlow, 1514};
    for (const sim::FlowId f : hi_first ? std::vector<sim::FlowId>{5, 3}
                                        : std::vector<sim::FlowId>{3, 5}) {
      q.enqueue(pkt(f, 1000), Time::zero());
      q.enqueue(pkt(f, 1000), Time::zero());
    }
    q.enqueue(pkt(9, 100), Time::zero());  // 4,100 bytes: one steal
    EXPECT_EQ(q.stats().dropped_packets, 1u);
    std::map<sim::FlowId, int> left;
    while (auto out = q.dequeue(Time::zero())) ++left[out->flow];
    EXPECT_EQ(left[3], 2) << "hi_first=" << hi_first;
    EXPECT_EQ(left[5], 1) << "hi_first=" << hi_first;
    EXPECT_EQ(left[9], 1) << "hi_first=" << hi_first;
  }
}

TEST(DrrFairQueue, BufferStealingMatchesFullScanUnderChurn) {
  // Seeded random enqueue/dequeue churn through a small shared buffer,
  // checked against a model that keeps every key's FIFO and picks each
  // steal victim by a scan over every key ever seen (most bytes, highest
  // key on ties). A wrong victim leaves a packet in the model that the
  // queue no longer holds: a later dequeue then misses the model's head
  // for its key. Keys come and go, so sub-queue slots are reused.
  Rng rng{2026};
  for (const FairnessKey mode : {FairnessKey::kPerFlow, FairnessKey::kPerUser}) {
    for (int trial = 0; trial < 40; ++trial) {
      const ByteCount capacity = rng.uniform_int(2'000, 12'000);
      DrrFairQueue q{capacity, mode, 1514};
      std::map<std::uint64_t, std::deque<sim::Packet>> model;  // every key ever seen
      std::map<std::uint64_t, ByteCount> model_bytes;
      ByteCount model_backlog = 0;
      std::uint64_t model_drops = 0;
      const auto key_of = [&](const sim::Packet& p) -> std::uint64_t {
        return mode == FairnessKey::kPerFlow ? p.flow : p.user;
      };
      const auto n_keys = rng.uniform_int(2, 12);
      // Whole-kilobyte sizes in half the trials make equal-byte ties common.
      const bool coarse = trial % 2 == 0;
      const auto check_dequeue = [&] {
        auto out = q.dequeue(Time::zero());
        if (model_backlog == 0) {
          ASSERT_FALSE(out.has_value());
          return;
        }
        ASSERT_TRUE(out.has_value());
        auto& fifo = model[key_of(*out)];
        ASSERT_FALSE(fifo.empty());
        ASSERT_EQ(out->seq, fifo.front().seq) << "key " << key_of(*out);
        model_bytes[key_of(*out)] -= fifo.front().size_bytes;
        model_backlog -= fifo.front().size_bytes;
        fifo.pop_front();
      };
      std::int64_t next_seq = 0;
      for (int op = 0; op < 600; ++op) {
        if (rng.chance(0.35)) {
          ASSERT_NO_FATAL_FAILURE(check_dequeue()) << "trial " << trial << " op " << op;
        } else {
          // User k sends on flows k, k + 100 and k + 200.
          const auto k = rng.uniform_int(1, n_keys);
          const ByteCount size = coarse ? 1000 * rng.uniform_int(1, 3) : rng.uniform_int(64, 1500);
          auto p = pkt(static_cast<sim::FlowId>(k + 100 * rng.uniform_int(0, 2)), size,
                       static_cast<sim::UserId>(k));
          p.seq = next_seq++;
          q.enqueue(p, Time::zero());
          model[key_of(p)].push_back(p);
          model_bytes[key_of(p)] += size;
          model_backlog += size;
          while (model_backlog > capacity) {
            std::uint64_t longest = model_bytes.begin()->first;
            for (const auto& [key, bytes] : model_bytes) {
              if (bytes >= model_bytes[longest]) longest = key;  // ascending: ties go high
            }
            model_bytes[longest] -= model[longest].back().size_bytes;
            model_backlog -= model[longest].back().size_bytes;
            model[longest].pop_back();
            ++model_drops;
          }
        }
        ASSERT_EQ(q.stats().dropped_packets, model_drops) << "trial " << trial;
        ASSERT_EQ(q.backlog_bytes(), model_backlog) << "trial " << trial;
      }
      while (model_backlog > 0) ASSERT_NO_FATAL_FAILURE(check_dequeue());
      ASSERT_NO_FATAL_FAILURE(check_dequeue());  // and the queue is empty too
      EXPECT_EQ(q.active_queues(), 0u);
      EXPECT_GT(model_drops, 0u) << "trial " << trial;
    }
  }
}

// ---------- CoDel ----------

TEST(CoDel, NoDropsWhenSojournBelowTarget) {
  CoDelQueue q{1 << 20};
  for (int i = 0; i < 100; ++i) {
    q.enqueue(pkt(1, 1000), Time::ms(i));
    auto p = q.dequeue(Time::ms(i + 1));  // 1 ms sojourn << 5 ms target
    EXPECT_TRUE(p.has_value());
  }
  EXPECT_EQ(q.stats().dropped_packets, 0u);
}

TEST(CoDel, DropsUnderPersistentQueue) {
  CoDelQueue q{1 << 22};
  // Build a standing queue: enqueue much faster than dequeue for 2 seconds.
  Time now = Time::zero();
  int enq = 0;
  std::uint64_t delivered = 0;
  for (int step = 0; step < 2000; ++step) {
    now = Time::ms(step);
    q.enqueue(pkt(1, 1000), now);
    ++enq;
    if (step % 2 == 0) {  // dequeue at half the enqueue rate
      if (q.dequeue(now).has_value()) ++delivered;
    }
  }
  EXPECT_GT(q.stats().dropped_packets, 0u);
}

TEST(CoDel, CapacityOverflowStillDrops) {
  CoDelQueue q{2500};
  EXPECT_TRUE(q.enqueue(pkt(1, 1000), Time::zero()));
  EXPECT_TRUE(q.enqueue(pkt(1, 1000), Time::zero()));
  EXPECT_FALSE(q.enqueue(pkt(1, 1000), Time::zero()));
}

// ---------- Token bucket ----------

TEST(TokenBucket, ConformsUpToBurst) {
  TokenBucket tb{Rate::mbps(8), 10000};
  EXPECT_TRUE(tb.conforms(10000, Time::zero()));
  tb.consume(10000);
  EXPECT_FALSE(tb.conforms(1000, Time::zero()));
}

TEST(TokenBucket, RefillsAtRate) {
  TokenBucket tb{Rate::mbps(8), 10000};  // 1 MB/s
  tb.consume(10000);
  // After 5 ms, 5000 bytes of tokens.
  EXPECT_TRUE(tb.conforms(5000, Time::ms(5)));
  tb.consume(5000);
  EXPECT_FALSE(tb.conforms(5000, Time::ms(5)));
}

TEST(TokenBucket, AvailableAtPredictsEligibility) {
  TokenBucket tb{Rate::mbps(8), 10000};
  tb.consume(10000);
  // 1000 bytes at 1 MB/s = 1 ms, plus the 1 ns anti-truncation ceiling; the
  // contract is that conforming at the returned time always succeeds.
  const Time t = tb.available_at(1000, Time::zero());
  EXPECT_GE(t, Time::ms(1));
  EXPECT_LE(t, Time::ms(1) + Time::ns(2));
  EXPECT_TRUE(tb.conforms(1000, t));
}

TEST(TokenBucketShaper, HoldsThenReleases) {
  TokenBucketShaper shaper{Rate::mbps(8), 1000, 1 << 20};
  shaper.enqueue(pkt(1, 1000), Time::zero());
  shaper.enqueue(pkt(1, 1000), Time::zero());
  // First conforms against the initial burst.
  EXPECT_TRUE(shaper.dequeue(Time::zero()).has_value());
  // Second must wait ~1 ms for tokens (the eligibility time is ceilinged by
  // a nanosecond so polling exactly then always succeeds).
  EXPECT_FALSE(shaper.dequeue(Time::zero()).has_value());
  const Time ready = shaper.next_ready(Time::zero());
  EXPECT_GE(ready, Time::ms(1));
  EXPECT_LE(ready, Time::ms(1) + Time::ns(2));
  EXPECT_TRUE(shaper.dequeue(ready).has_value());
}

TEST(TokenBucketShaper, LongRunRateIsShaped) {
  TokenBucketShaper shaper{Rate::mbps(8), 2000, 1 << 24};
  for (int i = 0; i < 1000; ++i) shaper.enqueue(pkt(1, 1000), Time::zero());
  // Drain for exactly 1 second of simulated time.
  ByteCount out = 0;
  Time now = Time::zero();
  while (now <= Time::sec(1.0)) {
    const Time ready = shaper.next_ready(now);
    if (ready == Time::never() || ready > Time::sec(1.0)) break;
    now = std::max(now, ready);
    auto p = shaper.dequeue(now);
    ASSERT_TRUE(p.has_value());
    out += p->size_bytes;
  }
  // 8 Mbit/s = 1 MB/s (+ the 2 KB burst).
  EXPECT_NEAR(static_cast<double>(out), 1e6, 5e4);
}

TEST(Policer, DropsNonConforming) {
  Policer pol{Rate::mbps(8), 2000, std::make_unique<DropTailQueue>(1 << 20)};
  // Burst of 10 packets instantly: 2 conform (burst), rest dropped.
  int admitted = 0;
  for (int i = 0; i < 10; ++i) admitted += pol.enqueue(pkt(1, 1000), Time::zero());
  EXPECT_EQ(admitted, 2);
  EXPECT_EQ(pol.policed_drops(), 8u);
  // Conforming traffic passes through to the inner queue.
  EXPECT_TRUE(pol.dequeue(Time::zero()).has_value());
}

TEST(Policer, PassesTrafficWithinRate) {
  Policer pol{Rate::mbps(8), 2000, std::make_unique<DropTailQueue>(1 << 20)};
  // 1000B per 1ms = 8 Mbit/s: everything conforms.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pol.enqueue(pkt(1, 1000), Time::ms(i)));
    EXPECT_TRUE(pol.dequeue(Time::ms(i)).has_value());
  }
  EXPECT_EQ(pol.policed_drops(), 0u);
}

// ---------- Per-user isolation ----------

TEST(PerUserIsolation, EnforcesContracts) {
  PerUserIsolation iso{Rate::mbps(8), 2000, 8 << 20};
  iso.set_contract(1, Rate::mbps(16));
  iso.set_contract(2, Rate::mbps(8));
  // Both users backlogged (well within their buffers); drain for 1 second.
  for (int i = 0; i < 5000; ++i) {
    iso.enqueue(pkt(10, 1000, 1), Time::zero());
    iso.enqueue(pkt(20, 1000, 2), Time::zero());
  }
  ByteCount u1 = 0;
  ByteCount u2 = 0;
  Time now = Time::zero();
  while (now <= Time::sec(1.0)) {
    const Time ready = iso.next_ready(now);
    if (ready == Time::never() || ready > Time::sec(1.0)) break;
    now = std::max(now, ready);
    auto p = iso.dequeue(now);
    if (!p) continue;
    (p->user == 1 ? u1 : u2) += p->size_bytes;
  }
  // User 1 paid for 2x the rate and should get ~2x the bytes.
  EXPECT_NEAR(static_cast<double>(u1) / static_cast<double>(u2), 2.0, 0.2);
}

TEST(PerUserIsolation, DefaultContractApplies) {
  PerUserIsolation iso{Rate::mbps(8), 10000, 1 << 20};
  iso.enqueue(pkt(1, 1000, 7), Time::zero());
  EXPECT_TRUE(iso.dequeue(Time::zero()).has_value());  // burst allows it
}

TEST(PerUserIsolation, PerUserBufferIsolation) {
  PerUserIsolation iso{Rate::mbps(8), 2000, 5000};
  // User 1 floods its own buffer; user 2's packet still admitted.
  for (int i = 0; i < 50; ++i) iso.enqueue(pkt(1, 1000, 1), Time::zero());
  EXPECT_TRUE(iso.enqueue(pkt(2, 1000, 2), Time::zero()));
  EXPECT_GT(iso.stats().dropped_packets, 0u);
}

// ---------- Packet conservation (the QdiscStats accounting contract) ----------
//
// Every qdisc must satisfy, at any instant:
//   enqueued_packets == dequeued_packets + dropped_packets + backlog_packets()
// where `enqueued_packets` counts every packet OFFERED (admitted or not).
// This is what makes the telemetry drop accounting comparable across
// disciplines: a policer rejection, a CoDel head drop, and a DRR
// buffer-steal eviction all land in the same ledger.

void expect_conserved(const sim::Qdisc& q, const char* ctx) {
  const auto& s = q.stats();
  EXPECT_EQ(s.enqueued_packets, s.dequeued_packets + s.dropped_packets + q.backlog_packets())
      << ctx << ": enq=" << s.enqueued_packets << " deq=" << s.dequeued_packets
      << " drop=" << s.dropped_packets << " backlog=" << q.backlog_packets();
}

/// Drives a qdisc with an overload phase (4 flows / 2 users bursting faster
/// than the drain), then a drain phase, checking conservation throughout.
void drive_and_check(sim::Qdisc& q, const char* name) {
  std::uint64_t offered = 0;
  for (int step = 0; step < 400; ++step) {
    const Time now = Time::ms(step);
    for (int f = 0; f < 4; ++f) {
      q.enqueue(pkt(static_cast<sim::FlowId>(f + 1), 1000,
                    static_cast<sim::UserId>(f % 2 + 1)),
                now);
      ++offered;
    }
    q.dequeue(now);  // drain at 1/4 of the offered rate -> forced drops
    if (step % 50 == 0) expect_conserved(q, name);
  }
  // Drain whatever is still eligible (shapers release over time).
  for (int step = 400; step < 3000; ++step) {
    const Time now = Time::ms(step);
    if (q.next_ready(now) == Time::never()) break;
    q.dequeue(now);
  }
  expect_conserved(q, name);
  EXPECT_EQ(q.stats().enqueued_packets, offered) << name << ": offered-count contract";
  EXPECT_GT(q.stats().dropped_packets, 0u) << name << ": overload phase must drop";
}

TEST(Conservation, DropTail) {
  DropTailQueue q{20'000};
  drive_and_check(q, "droptail");
}

TEST(Conservation, CoDel) {
  CoDelQueue q{20'000};
  drive_and_check(q, "codel");
}

TEST(Conservation, DrrFairQueue) {
  DrrFairQueue q{20'000, FairnessKey::kPerFlow, 1514};
  drive_and_check(q, "drr");
}

TEST(Conservation, TokenBucketShaper) {
  TokenBucketShaper q{Rate::mbps(8), 2000, 20'000};
  drive_and_check(q, "tbf");
}

TEST(Conservation, Policer) {
  Policer q{Rate::mbps(8), 2000, std::make_unique<DropTailQueue>(20'000)};
  drive_and_check(q, "policer");
}

TEST(Conservation, PolicerWithCoDelInner) {
  // Drops happen at two layers (policer rejections + inner AQM); the rolled
  // up ledger must still balance.
  Policer q{Rate::mbps(16), 4000, std::make_unique<CoDelQueue>(20'000)};
  drive_and_check(q, "policer+codel");
}

TEST(Conservation, PerUserIsolation) {
  PerUserIsolation q{Rate::mbps(8), 2000, 10'000};
  drive_and_check(q, "per-user");
}

TEST(Conservation, HierarchicalFairQueue) {
  HierarchicalFairQueue q{20'000, [](const sim::Packet& p) {
                            return static_cast<ClassId>(p.flow);  // leaf = flow id
                          }};
  // Leaves 1..4 under the root, matching drive_and_check's flow ids.
  for (double w : {4.0, 3.0, 2.0, 1.0}) q.add_class(kRootClass, w);
  drive_and_check(q, "hfq");
}

TEST(Conservation, HierarchicalFairQueueUnclassified) {
  // Packets with no matching leaf are dropped — and must still be in the
  // ledger, not silently vanish.
  HierarchicalFairQueue q{20'000, [](const sim::Packet&) { return ClassId{99}; }};
  q.add_class(kRootClass, 1.0);
  EXPECT_FALSE(q.enqueue(pkt(1, 1000), Time::zero()));
  EXPECT_EQ(q.stats().enqueued_packets, 1u);
  EXPECT_EQ(q.stats().dropped_packets, 1u);
  EXPECT_EQ(q.unclassified_drops(), 1u);
  expect_conserved(q, "hfq-unclassified");
}

TEST(Conservation, FqCoDel) {
  FqCoDelQueue q{20'000};
  drive_and_check(q, "fq_codel");
}

TEST(Conservation, FqCoDelFewBuckets) {
  // Forced hash collisions: 4 flows into 2 buckets — the buffer-stealing and
  // per-queue CoDel paths both run while the ledger must still balance.
  FqCoDelConfig cfg;
  cfg.capacity_bytes = 20'000;
  cfg.n_queues = 2;
  FqCoDelQueue q{cfg};
  drive_and_check(q, "fq_codel-2buckets");
}

TEST(Conservation, Pie) {
  PieQueue q{20'000};
  drive_and_check(q, "pie");
}

TEST(Conservation, FqCoDelEcn) {
  // ECN-capable standing queue (one bulk flow, ample buffer, 2x overload):
  // CE marks replace CoDel drops and enq == deq + drop + backlog throughout.
  FqCoDelQueue q{2'000'000};
  std::uint64_t offered = 0;
  for (int step = 0; step < 1000; ++step) {
    const Time now = Time::ms(step);
    for (int i = 0; i < 2; ++i) {
      auto p = pkt(1, 1000);
      p.ecn_capable = true;
      q.enqueue(p, now);
      ++offered;
    }
    q.dequeue(now);
    if (step % 100 == 0) expect_conserved(q, "fq_codel-ecn");
  }
  for (int step = 1000; step < 10'000; ++step) {
    const Time now = Time::ms(step);
    if (q.next_ready(now) == Time::never()) break;
    q.dequeue(now);
  }
  expect_conserved(q, "fq_codel-ecn");
  EXPECT_EQ(q.stats().enqueued_packets, offered);
  EXPECT_GT(q.stats().ecn_marked_packets, 0u) << "sustained overload must CE-mark";
  EXPECT_EQ(q.stats().dropped_packets, 0u) << "ECN traffic under capacity must not drop";
}

TEST(Conservation, PieEcn) {
  PieQueue q{60'000};
  std::uint64_t offered = 0;
  for (int step = 0; step < 2000; ++step) {
    const Time now = Time::ms(step);
    for (int f = 0; f < 2; ++f) {
      auto p = pkt(static_cast<sim::FlowId>(f + 1), 1000);
      p.ecn_capable = true;
      q.enqueue(p, now);
      ++offered;
    }
    q.dequeue(now);
    if (step % 100 == 0) expect_conserved(q, "pie-ecn");
  }
  for (int step = 2000; step < 10'000; ++step) {
    const Time now = Time::ms(step);
    if (q.next_ready(now) == Time::never()) break;
    q.dequeue(now);
  }
  expect_conserved(q, "pie-ecn");
  EXPECT_EQ(q.stats().enqueued_packets, offered);
  EXPECT_GT(q.stats().ecn_marked_packets, 0u) << "PIE below mark_ecnth must CE-mark";
}

// ---------- FQ-CoDel behavior ----------

TEST(FqCoDel, SparseFlowGetsPriority) {
  // A bulk flow builds a standing queue; a sparse flow's lone packet lands
  // in the new-queue list and must come out ahead of the backlog.
  FqCoDelQueue q{1'000'000};
  for (int i = 0; i < 50; ++i) q.enqueue(pkt(1, 1000), Time::zero());
  // Two dequeues exhaust the bulk queue's first quantum (1514 bytes), so its
  // queue migrates new -> old on the next scheduling decision.
  (void)q.dequeue(Time::zero());
  (void)q.dequeue(Time::zero());
  auto sparse = pkt(2, 500);
  sparse.seq = 4242;
  q.enqueue(sparse, Time::zero());
  auto out = q.dequeue(Time::zero());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->flow, 2u);
  EXPECT_EQ(out->seq, 4242);
}

TEST(FqCoDel, IsolatesBulkFromSparseDelay) {
  // The point of per-queue CoDel: a bulk flow's standing queue must not put
  // the sparse flow's queue into dropping state. The sparse flow's packets
  // all come through undropped even while the bulk queue is over target.
  FqCoDelQueue q{1'000'000};
  std::uint64_t sparse_seen = 0;
  for (int step = 0; step < 1000; ++step) {
    const Time now = Time::ms(step);
    q.enqueue(pkt(1, 1400), now);
    q.enqueue(pkt(1, 1400), now);  // bulk: 2x the drain rate
    if (step % 100 == 0) q.enqueue(pkt(2, 200), now);
    auto out = q.dequeue(now);
    if (out && out->flow == 2) ++sparse_seen;
  }
  EXPECT_EQ(sparse_seen, 10u) << "every sparse packet must be delivered promptly";
}

TEST(FqCoDel, SingleBucketMatchesCoDel) {
  // One bucket and a buffer that never fills reduce FQ-CoDel to one CoDel
  // FIFO behind DRR, so it must make every drop and mark decision plain
  // CoDel makes. Arrivals outpace departures by ~25% with a mix of ECT and
  // non-ECT packets: a standing queue that enters and leaves dropping state.
  FqCoDelConfig cfg;
  cfg.capacity_bytes = 100'000'000;
  cfg.n_queues = 1;
  FqCoDelQueue fq{cfg};
  CoDelQueue codel{cfg.capacity_bytes, cfg.target, cfg.interval};
  Rng rng{8289};
  std::int64_t seq = 0;
  std::uint64_t compared = 0;
  for (int step = 0; step < 20'000; ++step) {
    const Time now = Time::us(500 * step);
    const auto arrivals = rng.uniform_int(0, 2);
    for (std::int64_t a = 0; a < arrivals; ++a) {
      auto p = pkt(static_cast<sim::FlowId>(rng.uniform_int(1, 4)), rng.uniform_int(500, 1500));
      p.seq = seq++;
      p.ecn_capable = rng.chance(0.5);
      fq.enqueue(p, now);
      codel.enqueue(p, now);
    }
    if (!rng.chance(0.8)) continue;
    const auto a = fq.dequeue(now);
    const auto b = codel.dequeue(now);
    ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
    if (!a) continue;
    ASSERT_EQ(a->seq, b->seq) << "step " << step;
    ASSERT_EQ(a->ecn_marked, b->ecn_marked) << "seq " << a->seq;
    ++compared;
  }
  const auto& fs = fq.stats();
  const auto& cs = codel.stats();
  EXPECT_EQ(fs.enqueued_packets, cs.enqueued_packets);
  EXPECT_EQ(fs.dequeued_packets, cs.dequeued_packets);
  EXPECT_EQ(fs.dropped_packets, cs.dropped_packets);
  EXPECT_EQ(fs.dropped_bytes, cs.dropped_bytes);
  EXPECT_EQ(fs.ecn_marked_packets, cs.ecn_marked_packets);
  EXPECT_EQ(fq.backlog_bytes(), codel.backlog_bytes());
  EXPECT_EQ(fq.backlog_packets(), codel.backlog_packets());
  // The oracle only means something if the controller actually acted.
  EXPECT_GT(compared, 10'000u);
  EXPECT_GT(cs.dropped_packets, 0u);
  EXPECT_GT(cs.ecn_marked_packets, 0u);
}

TEST(FqCoDel, HashSeedChangesBucketMap) {
  // The same flow always lands in the same bucket, and a different
  // hash_seed gives (almost surely) a different map for at least one of a
  // handful of flows.
  FqCoDelConfig cfg;
  cfg.capacity_bytes = 1 << 20;
  cfg.n_queues = 16;
  cfg.hash_seed = 42;
  const FqCoDelQueue q{cfg};
  cfg.hash_seed = 43;
  const FqCoDelQueue q2{cfg};
  EXPECT_EQ(q.bucket_of(123), q.bucket_of(123));
  bool any_differ = false;
  for (sim::FlowId f = 1; f <= 32; ++f) any_differ |= q.bucket_of(f) != q2.bucket_of(f);
  EXPECT_TRUE(any_differ);
}

TEST(FqCoDel, BufferStealingDropsFromFattestQueue) {
  FqCoDelConfig cfg;
  cfg.capacity_bytes = 10'000;
  FqCoDelQueue q{cfg};
  for (int i = 0; i < 9; ++i) q.enqueue(pkt(1, 1000), Time::zero());
  q.enqueue(pkt(2, 500), Time::zero());  // fits
  EXPECT_EQ(q.stats().dropped_packets, 0u);
  q.enqueue(pkt(2, 900), Time::zero());  // over: flow 1 (fattest) pays
  EXPECT_EQ(q.stats().dropped_packets, 1u);
  EXPECT_LE(q.backlog_bytes(), 10'000);
  // All of flow 2's packets are still there (drain and count).
  std::size_t flow2 = 0;
  while (auto out = q.dequeue(Time::zero())) {
    if (out->flow == 2) ++flow2;
  }
  EXPECT_EQ(flow2, 2u);
}

TEST(FqCoDel, BufferStealingTieGoesToLowestBucket) {
  // Two buckets hold equal bytes when the buffer overflows. Whichever of
  // them went active first (and so sits first on the new-queue list), the
  // lower bucket index pays, as a scan over all buckets would choose.
  FqCoDelConfig cfg;
  cfg.capacity_bytes = 4'000;
  cfg.n_queues = 8;
  // Flows in three distinct buckets, `lo` below `hi`.
  std::vector<sim::FlowId> flows;
  {
    FqCoDelQueue probe{cfg};
    std::set<std::uint32_t> seen;
    for (sim::FlowId f = 1; flows.size() < 3; ++f) {
      if (seen.insert(probe.bucket_of(f)).second) flows.push_back(f);
    }
    std::sort(flows.begin(), flows.begin() + 2, [&](sim::FlowId a, sim::FlowId b) {
      return probe.bucket_of(a) < probe.bucket_of(b);
    });
  }
  const sim::FlowId lo = flows[0];
  const sim::FlowId hi = flows[1];
  const sim::FlowId third = flows[2];
  for (const bool hi_first : {true, false}) {
    FqCoDelQueue q{cfg};
    for (const sim::FlowId f : hi_first ? std::vector{hi, lo} : std::vector{lo, hi}) {
      q.enqueue(pkt(f, 1000), Time::zero());
      q.enqueue(pkt(f, 1000), Time::zero());
    }
    q.enqueue(pkt(third, 100), Time::zero());  // 4,100 bytes: one steal
    EXPECT_EQ(q.stats().dropped_packets, 1u);
    std::map<sim::FlowId, int> left;
    while (auto out = q.dequeue(Time::zero())) ++left[out->flow];
    EXPECT_EQ(left[lo], 1) << "hi_first=" << hi_first;
    EXPECT_EQ(left[hi], 2) << "hi_first=" << hi_first;
    EXPECT_EQ(left[third], 1) << "hi_first=" << hi_first;
  }
}

TEST(FqCoDel, BufferStealingMatchesFullScanUnderChurn) {
  // Seeded random enqueue/dequeue churn through a small shared buffer,
  // checked against a model that keeps every bucket's FIFO and picks each
  // steal victim by a scan over all buckets (most bytes, lowest index on
  // ties). Time stands still, so CoDel never drops and every drop is a
  // steal. A wrong victim leaves a packet in the model that the queue no
  // longer holds: a later dequeue then misses the model's bucket head.
  Rng rng{2024};
  for (const std::uint32_t n_queues : {2u, 3u, 5u, 16u, 64u}) {
    for (int trial = 0; trial < 20; ++trial) {
      FqCoDelConfig cfg;
      cfg.n_queues = n_queues;
      cfg.capacity_bytes = rng.uniform_int(2'000, 12'000);
      cfg.hash_seed = static_cast<std::uint64_t>(trial);
      FqCoDelQueue q{cfg};
      std::vector<std::deque<sim::Packet>> model(n_queues);
      std::vector<ByteCount> model_bytes(n_queues, 0);
      ByteCount model_backlog = 0;
      std::uint64_t model_drops = 0;
      const auto n_flows = static_cast<sim::FlowId>(rng.uniform_int(2, 3 * n_queues));
      // Whole-kilobyte sizes in half the trials make equal-byte ties common.
      const bool coarse = trial % 2 == 0;
      const auto check_dequeue = [&] {
        auto out = q.dequeue(Time::zero());
        if (model_backlog == 0) {
          ASSERT_FALSE(out.has_value());
          return;
        }
        ASSERT_TRUE(out.has_value());
        auto& fifo = model[q.bucket_of(out->flow)];
        ASSERT_FALSE(fifo.empty());
        ASSERT_EQ(out->seq, fifo.front().seq) << "flow " << out->flow;
        model_bytes[q.bucket_of(out->flow)] -= fifo.front().size_bytes;
        model_backlog -= fifo.front().size_bytes;
        fifo.pop_front();
      };
      std::int64_t next_seq = 0;
      for (int op = 0; op < 600; ++op) {
        if (rng.chance(0.35)) {
          ASSERT_NO_FATAL_FAILURE(check_dequeue()) << "n_queues " << n_queues << " op " << op;
        } else {
          const auto flow = static_cast<sim::FlowId>(rng.uniform_int(1, n_flows));
          const ByteCount size = coarse ? 1000 * rng.uniform_int(1, 3) : rng.uniform_int(64, 1500);
          auto p = pkt(flow, size);
          p.seq = next_seq++;
          q.enqueue(p, Time::zero());
          const std::uint32_t b = q.bucket_of(flow);
          model[b].push_back(p);
          model_bytes[b] += size;
          model_backlog += size;
          while (model_backlog > cfg.capacity_bytes) {
            std::uint32_t fattest = 0;
            for (std::uint32_t i = 1; i < n_queues; ++i) {
              if (model_bytes[i] > model_bytes[fattest]) fattest = i;
            }
            model_bytes[fattest] -= model[fattest].front().size_bytes;
            model_backlog -= model[fattest].front().size_bytes;
            model[fattest].pop_front();
            ++model_drops;
          }
        }
        ASSERT_EQ(q.stats().dropped_packets, model_drops) << "n_queues " << n_queues;
        ASSERT_EQ(q.backlog_bytes(), model_backlog) << "n_queues " << n_queues;
      }
      while (model_backlog > 0) ASSERT_NO_FATAL_FAILURE(check_dequeue());
      ASSERT_NO_FATAL_FAILURE(check_dequeue());  // and the queue is empty too
      EXPECT_GT(model_drops, 0u) << "n_queues " << n_queues << " trial " << trial;
    }
  }
}

// ---------- PIE behavior ----------

TEST(Pie, DropProbabilityRisesUnderSustainedOverload) {
  PieQueue q{200'000};
  for (int step = 0; step < 3000; ++step) {
    const Time now = Time::ms(step);
    q.enqueue(pkt(1, 1000), now);
    q.enqueue(pkt(1, 1000), now);
    q.dequeue(now);  // drain at half the offered rate
  }
  EXPECT_GT(q.drop_probability(), 0.0);
  EXPECT_GT(q.stats().dropped_packets, 0u);
}

TEST(Pie, NoEarlyDropsOnShortBurst) {
  // Within the burst allowance (150 ms) and under capacity, PIE admits
  // everything — that is its DOCSIS-motivated design point.
  PieQueue q{10'000'000};
  for (int i = 0; i < 100; ++i) q.enqueue(pkt(1, 1000), Time::us(i * 100));
  EXPECT_EQ(q.stats().dropped_packets, 0u);
}

TEST(Pie, DeterministicForEqualSeeds) {
  auto run = [](std::uint64_t seed) {
    PieConfig cfg;
    cfg.capacity_bytes = 100'000;
    cfg.seed = seed;
    PieQueue q{cfg};
    std::uint64_t sig = 0;
    for (int step = 0; step < 2000; ++step) {
      const Time now = Time::ms(step);
      q.enqueue(pkt(1, 1000), now);
      q.enqueue(pkt(2, 1000), now);
      if (auto out = q.dequeue(now)) sig = sig * 31 + static_cast<std::uint64_t>(out->flow);
    }
    return sig * 1000003 + q.stats().dropped_packets;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // the randomness is real, just seeded
}

}  // namespace
}  // namespace ccc::queue
