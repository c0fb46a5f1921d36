// Property-based and parameterized sweeps over the library's invariants.
//
// These are deliberately structured as TEST_P sweeps: each instantiation
// checks one invariant over a family of configurations rather than a single
// hand-picked case.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/fairness.hpp"
#include "app/bulk.hpp"
#include "cca/aimd.hpp"
#include "core/cca_registry.hpp"
#include "core/dumbbell.hpp"
#include "queue/codel.hpp"
#include "queue/drop_tail.hpp"
#include "queue/drr_fair_queue.hpp"
#include "queue/fq_codel.hpp"
#include "queue/hierarchical_fq.hpp"
#include "queue/per_user_isolation.hpp"
#include "queue/pie.hpp"
#include "queue/token_bucket.hpp"
#include "util/rng.hpp"

namespace ccc {
namespace {

// ---------------------------------------------------------------------------
// Invariant 1: every qdisc conserves packets — enqueued == dequeued + dropped
// + backlog, bytes included, under a randomized open-loop workload — and
// hands each packet back stamped with the instant it was offered (the Link's
// sojourn histogram reads that stamp).
// ---------------------------------------------------------------------------

using QdiscFactory = std::function<std::unique_ptr<sim::Qdisc>()>;

struct QdiscCase {
  std::string name;
  QdiscFactory make;
};

class QdiscConservation : public ::testing::TestWithParam<int> {
 public:
  static std::vector<QdiscCase> cases() {
    return {
        {"droptail", [] { return std::make_unique<queue::DropTailQueue>(50'000); }},
        {"droptail_ecn",
         [] { return std::make_unique<queue::DropTailQueue>(50'000, 20'000); }},
        {"codel", [] { return std::make_unique<queue::CoDelQueue>(50'000); }},
        {"drr_flow",
         [] {
           return std::make_unique<queue::DrrFairQueue>(50'000, queue::FairnessKey::kPerFlow);
         }},
        {"drr_user",
         [] {
           return std::make_unique<queue::DrrFairQueue>(50'000, queue::FairnessKey::kPerUser);
         }},
        // A buffer of a few packets: DRR steals on most arrivals, and its
        // sub-queues empty and their slots are reused all the time.
        {"drr_steal",
         [] { return std::make_unique<queue::DrrFairQueue>(6'000, queue::FairnessKey::kPerFlow); }},
        {"tbf", [] { return std::make_unique<queue::TokenBucketShaper>(Rate::mbps(10), 5'000,
                                                                       50'000); }},
        {"policer",
         [] {
           return std::make_unique<queue::Policer>(
               Rate::mbps(10), 5'000, std::make_unique<queue::DropTailQueue>(50'000));
         }},
        {"per_user",
         [] {
           return std::make_unique<queue::PerUserIsolation>(Rate::mbps(10), 5'000, 50'000);
         }},
        {"fq_codel",
         [] {
           return std::make_unique<queue::FqCoDelQueue>(
               queue::FqCoDelConfig{.capacity_bytes = 50'000, .n_queues = 4});
         }},
        {"pie", [] { return std::make_unique<queue::PieQueue>(50'000); }},
        {"hfq",
         [] {
           // Two leaves (ids 1 and 2): user 1 alone, users 2 and 3 together.
           auto hfq = std::make_unique<queue::HierarchicalFairQueue>(
               50'000, [](const sim::Packet& p) -> queue::ClassId { return p.user == 1 ? 1 : 2; });
           hfq->add_class(queue::kRootClass, 1.0);
           hfq->add_class(queue::kRootClass, 2.0);
           return hfq;
         }},
    };
  }
};

TEST_P(QdiscConservation, PacketsNeitherCreatedNorLeaked) {
  const auto c = cases()[static_cast<std::size_t>(GetParam())];
  auto q = c.make();
  Rng rng{static_cast<std::uint64_t>(GetParam()) + 99};

  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  ByteCount bytes_offered = 0;
  ByteCount bytes_delivered = 0;
  Time now = Time::zero();
  std::vector<Time> offered_at;  // indexed by seq
  auto deliver = [&](const sim::Packet& pkt) {
    ++delivered;
    bytes_delivered += pkt.size_bytes;
    ASSERT_LT(static_cast<std::size_t>(pkt.seq), offered_at.size()) << c.name;
    EXPECT_EQ(pkt.enqueued_at, offered_at[static_cast<std::size_t>(pkt.seq)])
        << c.name << ": seq " << pkt.seq << " not stamped with its offer time";
  };

  for (int step = 0; step < 5000; ++step) {
    now += Time::us(rng.uniform_int(10, 300));
    // Random bursts of enqueues from random flows/users.
    const int burst = static_cast<int>(rng.uniform_int(0, 3));
    for (int b = 0; b < burst; ++b) {
      sim::Packet p;
      p.flow = static_cast<sim::FlowId>(rng.uniform_int(1, 6));
      p.user = static_cast<sim::UserId>(rng.uniform_int(1, 3));
      p.size_bytes = rng.uniform_int(80, 1500);
      p.ecn_capable = rng.chance(0.5);
      p.seq = static_cast<std::int64_t>(offered_at.size());
      offered_at.push_back(now);
      ++offered;
      bytes_offered += p.size_bytes;
      q->enqueue(p, now);
    }
    // Drain opportunistically.
    if (rng.chance(0.7)) {
      const Time ready = q->next_ready(now);
      if (ready != Time::never() && ready <= now) {
        if (auto pkt = q->dequeue(now)) deliver(*pkt);
      }
    }
  }
  // Final drain (advance time so shapers release everything).
  for (int i = 0; i < 200'000 && q->backlog_packets() > 0; ++i) {
    const Time ready = q->next_ready(now);
    ASSERT_NE(ready, Time::never()) << c.name << ": backlog but never ready";
    now = std::max(now, ready);
    if (auto pkt = q->dequeue(now)) deliver(*pkt);
  }

  const auto& st = q->stats();
  EXPECT_EQ(q->backlog_packets(), 0u) << c.name;
  EXPECT_EQ(q->backlog_bytes(), 0) << c.name;
  EXPECT_EQ(offered, delivered + st.dropped_packets) << c.name;
  EXPECT_EQ(bytes_offered, bytes_delivered + st.dropped_bytes) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllQdiscs, QdiscConservation, ::testing::Range(0, 12),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return QdiscConservation::cases()[static_cast<std::size_t>(
                                                                 info.param)]
                               .name;
                         });

// ---------------------------------------------------------------------------
// Invariant 2: every registered CCA, running solo on a clean dumbbell,
// achieves reasonable utilization and eventually completes a bounded
// transfer exactly (every byte delivered once, in order).
// ---------------------------------------------------------------------------

class CcaSolo : public ::testing::TestWithParam<std::string> {};

TEST_P(CcaSolo, FillsACleanLink) {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(20);
  cfg.one_way_delay = Time::ms(15);
  cfg.reverse_delay = Time::ms(15);
  cfg.buffer_bdp_multiple = 2.0;
  core::DumbbellScenario net{cfg};
  net.add_flow(core::make_cca_factory(GetParam())(), std::make_unique<app::BulkApp>());
  net.run_until(Time::sec(5.0));
  const auto snap = net.snapshot_delivered();
  net.run_until(Time::sec(25.0));
  const double mbps = net.goodput_mbps_since(0, snap, Time::sec(20.0));
  // Delay-based CCAs idle a little headroom; loss-based ones saturate.
  EXPECT_GT(mbps, 13.0) << GetParam();
  EXPECT_LT(mbps, 20.5) << GetParam();
}

TEST_P(CcaSolo, CompletesABoundedTransferExactly) {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(20);
  cfg.one_way_delay = Time::ms(15);
  cfg.reverse_delay = Time::ms(15);
  cfg.buffer_bdp_multiple = 0.5;  // shallow: force loss recovery to engage
  core::DumbbellScenario net{cfg};
  const ByteCount size = 3'000'000;
  net.add_flow(core::make_cca_factory(GetParam())(), std::make_unique<app::BulkApp>(size));
  net.run_until(Time::sec(60.0));
  EXPECT_TRUE(net.flow(0).sender().completed()) << GetParam();
  EXPECT_EQ(net.flow(0).delivered_bytes(), size) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Registry, CcaSolo,
                         ::testing::Values("reno", "cubic", "bbr", "vegas", "copa", "aimd",
                                           "dctcp"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ---------------------------------------------------------------------------
// Invariant 3 (Chiu-Jain): two AIMD flows with equal parameters converge to
// a fair share on a shared DropTail bottleneck, across the (a, b) space.
// ---------------------------------------------------------------------------

struct AimdParams {
  double a;
  double b;
};

class ChiuJainConvergence : public ::testing::TestWithParam<AimdParams> {};

TEST_P(ChiuJainConvergence, EqualAimdFlowsConvergeToFairness) {
  const auto [a, b] = GetParam();
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(30);
  cfg.one_way_delay = Time::ms(15);
  cfg.reverse_delay = Time::ms(15);
  cfg.buffer_bdp_multiple = 1.0;
  core::DumbbellScenario net{cfg};
  for (int i = 0; i < 2; ++i) {
    net.add_flow(std::make_unique<cca::Aimd>(a, b), std::make_unique<app::BulkApp>(),
                 static_cast<sim::UserId>(i + 1),
                 Time::sec(i * 2.0));  // staggered start: must still converge
  }
  // Convergence time scales like 1/b (gentler decreases redistribute
  // bandwidth more slowly), so measure over a long window.
  net.run_until(Time::sec(25.0));
  const auto snap = net.snapshot_delivered();
  net.run_until(Time::sec(85.0));
  const auto g = net.goodputs_mbps_since(snap, Time::sec(60.0));
  EXPECT_GT(jain_fairness_index(g), 0.9) << "a=" << a << " b=" << b << " -> " << g[0] << "/"
                                         << g[1];
  EXPECT_GT(g[0] + g[1], 23.0) << "link badly underutilized";
}

INSTANTIATE_TEST_SUITE_P(ParamSpace, ChiuJainConvergence,
                         ::testing::Values(AimdParams{1.0, 0.5}, AimdParams{0.5, 0.5},
                                           AimdParams{2.0, 0.5}, AimdParams{1.0, 0.25},
                                           AimdParams{1.0, 0.7}, AimdParams{0.5, 0.125}));

// ---------------------------------------------------------------------------
// Invariant 4: data integrity through a lossy path. Whatever the drop rate,
// a bounded transfer completes with every byte delivered exactly once.
// ---------------------------------------------------------------------------

class LossyDelivery : public ::testing::TestWithParam<double> {};

TEST_P(LossyDelivery, AllBytesDeliveredDespitePolicerDrops) {
  // A policer with a tiny burst drops aggressively and non-uniformly.
  const double policed_mbps = GetParam();
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(20);
  cfg.one_way_delay = Time::ms(15);
  cfg.reverse_delay = Time::ms(15);
  auto pol = std::make_unique<queue::Policer>(
      Rate::mbps(policed_mbps), 6'000,
      std::make_unique<queue::DropTailQueue>(core::dumbbell_buffer_bytes(cfg)));
  core::DumbbellScenario net{cfg, std::move(pol)};
  const ByteCount size = 2'000'000;
  net.add_flow(core::make_cca_factory("cubic")(), std::make_unique<app::BulkApp>(size));
  net.run_until(Time::sec(120.0));
  ASSERT_TRUE(net.flow(0).sender().completed()) << policed_mbps << " Mbit/s policer";
  EXPECT_EQ(net.flow(0).delivered_bytes(), size);
  // The policer must actually have dropped something for the test to bite.
  EXPECT_GT(net.bottleneck().qdisc().stats().dropped_packets, 0u);
}

INSTANTIATE_TEST_SUITE_P(DropRates, LossyDelivery, ::testing::Values(2.0, 5.0, 10.0));

// ---------------------------------------------------------------------------
// Invariant 5: N equal Reno flows split a FIFO bottleneck fairly for any N.
// ---------------------------------------------------------------------------

class RenoFairSplit : public ::testing::TestWithParam<int> {};

TEST_P(RenoFairSplit, JainCloseToOne) {
  const int n = GetParam();
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(40);
  cfg.one_way_delay = Time::ms(20);
  cfg.reverse_delay = Time::ms(20);
  cfg.buffer_bdp_multiple = 1.0;
  core::DumbbellScenario net{cfg};
  for (int i = 0; i < n; ++i) {
    net.add_flow(core::make_cca_factory("reno")(), std::make_unique<app::BulkApp>());
  }
  net.run_until(Time::sec(10.0));
  const auto snap = net.snapshot_delivered();
  net.run_until(Time::sec(50.0));
  const auto g = net.goodputs_mbps_since(snap, Time::sec(40.0));
  EXPECT_GT(jain_fairness_index(g), 0.85) << "n=" << n;
  double total = 0.0;
  for (double x : g) total += x;
  EXPECT_GT(total, 34.0) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, RenoFairSplit, ::testing::Values(2, 3, 5, 8));

}  // namespace
}  // namespace ccc
