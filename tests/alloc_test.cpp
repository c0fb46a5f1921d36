// Allocation oracle for the packet path.
//
// Every per-packet queue (qdisc FIFOs, the packet pool, the sender's
// scoreboard and delivery history, FQ-CoDel's bucket lists) keeps its
// storage across packets, so once a scenario has warmed up, moving a packet
// through the simulator should not call the allocator. This binary replaces
// the global operator new with a counting one, runs five dumbbells past
// their warm-up, and bounds the allocations made per packet the bottleneck
// link serializes. A regression that allocates per packet or per few
// packets (a node-based list, a deque that frees and re-allocates blocks as
// its front advances) fails the bound. The runner's map, behind every
// sweep, is held to the same rule per task.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "app/abr_video.hpp"
#include "app/bulk.hpp"
#include "app/rate_limited.hpp"
#include "cca/bbr.hpp"
#include "cca/cubic.hpp"
#include "core/cca_registry.hpp"
#include "core/dumbbell.hpp"
#include "queue/drr_fair_queue.hpp"
#include "queue/fq_codel.hpp"
#include "runner/experiment_runner.hpp"
#include "util/block_deque.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_frees{0};

void counted_free(void* p) {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  return p;
}

}  // namespace

// Replacements for every allocating form of the global operator new; the
// matching deletes free what malloc/posix_memalign returned. (GCC cannot see
// that the replaced new is malloc, so it flags each free as mismatched.)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n, 0)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_alloc(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t a) { return ::operator new(n, a); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n, 0); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
#pragma GCC diagnostic pop

namespace ccc {
namespace {

/// Allocations per serialized bottleneck packet once a scenario is warm: at
/// most one per eight packets. What remains is not per packet: a scoreboard
/// regrowing during a long loss recovery (most of the first scenario's),
/// and qdisc FIFOs (FQ-CoDel's buckets above all) refilling after they
/// shrink, since a queue keeps no more spare blocks than it has in use.
/// With libstdc++ deques behind the FIFOs and the scoreboard and std::list
/// behind FQ-CoDel's bucket lists these scenarios read 0.45, 1.71 and 0.45;
/// the block container reads 0.120, 0.106 and 0.115. Putting only the
/// scoreboard back on a deque reads 0.094, 0.144 and 0.154. Keeping the
/// receiver's reassembly buffer between loss episodes, instead of
/// releasing and regrowing it, reads 0.113, 0.099 and 0.109.
constexpr double kMaxAllocationsPerPacket = 1.0 / 8;

/// Allocations a warm short-flow scenario may hold at the end beyond those
/// it held after warm-up: a few dozen live flows' worth, however many
/// arrive in between.
constexpr std::int64_t kMaxChurnGrowth = 400;

double allocations_per_packet(core::DumbbellScenario& net, Time warmup, Time measure,
                              const std::string& name) {
  net.run_until(warmup);
  const std::uint64_t a0 = g_allocations.load();
  const std::uint64_t p0 = net.bottleneck().stats().packets_sent;
  net.run_until(warmup + measure);
  const std::uint64_t allocations = g_allocations.load() - a0;
  const std::uint64_t packets = net.bottleneck().stats().packets_sent - p0;
  EXPECT_GT(packets, 10'000u) << name << ": too few packets to measure";
  const double per_packet = static_cast<double>(allocations) / static_cast<double>(packets);
  std::printf("%s: %llu allocations over %llu link packets (%.4f per packet)\n", name.c_str(),
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(packets), per_packet);
  return per_packet;
}

/// fig4's dumbbell (40 Mbit/s, 20 ms each way, one BDP of buffer).
core::DumbbellConfig fig4_link() {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(40);
  cfg.one_way_delay = Time::ms(20);
  cfg.reverse_delay = Time::ms(20);
  cfg.buffer_bdp_multiple = 1.0;
  return cfg;
}

void add_bbr_and_four_cubic(core::DumbbellScenario& net) {
  net.add_flow(std::make_unique<cca::Bbr>(), std::make_unique<app::BulkApp>());
  for (int i = 0; i < 4; ++i) {
    net.add_flow(std::make_unique<cca::Cubic>(), std::make_unique<app::BulkApp>());
  }
}

TEST(Allocations, BbrAndFourCubicOverDropTail) {
  core::DumbbellScenario net{fig4_link()};
  add_bbr_and_four_cubic(net);
  EXPECT_LE(allocations_per_packet(net, Time::sec(5.0), Time::sec(10.0), "bbr+4cubic/droptail"),
            kMaxAllocationsPerPacket);
}

TEST(Allocations, BbrAndFourCubicOverFqCoDel) {
  const core::DumbbellConfig cfg = fig4_link();
  core::DumbbellScenario net{cfg,
                             std::make_unique<queue::FqCoDelQueue>(core::dumbbell_buffer_bytes(cfg))};
  add_bbr_and_four_cubic(net);
  EXPECT_LE(allocations_per_packet(net, Time::sec(5.0), Time::sec(10.0), "bbr+4cubic/fq_codel"),
            kMaxAllocationsPerPacket);
}

TEST(Allocations, BbrAndFourCubicOverDrr) {
  // fig4's fq-flow row: per-flow DRR. Its sub-queues live in one vector,
  // found through a flat key table, and a sub-queue that empties hands its
  // slot, FIFO block included, to the next key that arrives.
  const core::DumbbellConfig cfg = fig4_link();
  core::DumbbellScenario net{cfg, std::make_unique<queue::DrrFairQueue>(
                                      core::dumbbell_buffer_bytes(cfg),
                                      queue::FairnessKey::kPerFlow)};
  add_bbr_and_four_cubic(net);
  EXPECT_LE(allocations_per_packet(net, Time::sec(5.0), Time::sec(10.0), "bbr+4cubic/drr"),
            kMaxAllocationsPerPacket);
}

TEST(Allocations, SubMssRateLimitedCubicMix) {
  // fig5's access link at half scale: four Cubic flows whose apps each
  // produce 8 Mbit/s into 25 Mbit/s. The apps trickle bytes between ACKs,
  // so most segments are sub-MSS, and the 32 Mbit/s offered load keeps the
  // queue full and the SACK scoreboards busy.
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(25);
  cfg.one_way_delay = Time::ms(10);
  cfg.reverse_delay = Time::ms(10);
  cfg.buffer_bdp_multiple = 2.0;
  core::DumbbellScenario net{cfg};
  for (int i = 0; i < 4; ++i) {
    net.add_flow(std::make_unique<cca::Cubic>(),
                 std::make_unique<app::RateLimitedApp>(net.scheduler(), Rate::mbps(8)));
  }
  EXPECT_LE(allocations_per_packet(net, Time::sec(5.0), Time::sec(10.0), "4rl/cubic/droptail"),
            kMaxAllocationsPerPacket);
}

TEST(Allocations, ShortFlowChurnHoldsLiveFlowsNotArrivals) {
  // perfbench applimited_mix's web row at half its length again: an ABR
  // stream, Poisson short flows every 30 ms and CBR, 40 s. Once warm, the
  // allocations the scenario holds (news minus deletes) follow the flows
  // that are live, not the ~1,000 that arrive and finish after warm-up:
  // finished flows are retired and their reverse pipes reused. Keeping
  // every finished flow (each holds its TcpFlow, app, CCA, completion
  // callback and scoreboard blocks) held 8,931 more here.
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(25);
  cfg.one_way_delay = Time::ms(10);
  cfg.reverse_delay = Time::ms(10);
  cfg.buffer_bdp_multiple = 2.0;
  core::DumbbellScenario net{cfg};
  net.add_flow(std::make_unique<cca::Cubic>(),
               std::make_unique<app::AbrVideoApp>(net.scheduler()));
  flow::ShortFlowConfig sf;
  sf.user = 2;
  sf.stop_at = Time::sec(40.0);
  sf.mean_interarrival = Time::ms(30);
  auto& web = net.add_short_flows(sf, core::make_cca_factory("cubic"));
  net.add_cbr(Rate::mbps(1), Time::sec(1.0), Time::sec(40.0), 3);
  const auto live = [] { return static_cast<std::int64_t>(g_allocations.load() - g_frees.load()); };
  net.run_until(Time::sec(10.0));
  const std::int64_t warm = live();
  const std::size_t started_warm = web.flows_started();
  net.run_until(Time::sec(40.0));
  const std::int64_t grown = live() - warm;
  const std::size_t arrivals = web.flows_started() - started_warm;
  EXPECT_GT(arrivals, 900u);
  EXPECT_LE(grown, kMaxChurnGrowth) << arrivals << " arrivals";
  std::printf("short-flow churn: %lld allocations held after warm-up, %lld more at 40 s "
              "(%zu arrivals, %zu flows held)\n",
              static_cast<long long>(warm), static_cast<long long>(grown), arrivals,
              web.flows_held());
}

TEST(Allocations, BlockDequeHoldsAtMostTwiceTheBlocksItsDepthNeeds) {
  // A scoreboard's history: a long recovery grows it far past its usual
  // depth, then it slides at a few hundred elements for the rest of the
  // flow. Spare blocks must shrink with it, and a steady slide must not
  // call the allocator.
  using Elem = std::array<char, 64>;  // 8 per block, like a scoreboard segment
  constexpr std::size_t kPerBlock = util::BlockDeque<Elem>::kBlockElems;
  static_assert(kPerBlock == 8);
  const auto live = [] { return g_allocations.load() - g_frees.load(); };
  const std::uint64_t live0 = live();
  util::BlockDeque<Elem> q;
  std::uint64_t worst_excess = 0;  // allocations held beyond the bound, at worst
  const auto check = [&] {
    // Blocks in use, spares (at most as many) and the pointer vector.
    const std::uint64_t bound = 2 * (q.size() / kPerBlock + 2) + 1;
    const std::uint64_t held = live() - live0;
    if (held > bound) worst_excess = std::max(worst_excess, held - bound);
  };
  for (int k = 0; k < 20'000; ++k) q.push_back(Elem{});
  const std::uint64_t peak = live() - live0;
  EXPECT_GE(peak, 20'000 / kPerBlock);
  while (q.size() > 100) {
    q.pop_front();
    check();
  }
  EXPECT_LE(live() - live0, 2 * (100 / kPerBlock + 2) + 1);
  const std::uint64_t a0 = g_allocations.load();
  for (int k = 0; k < 50'000; ++k) {
    q.push_back(Elem{});
    q.pop_front();
    check();
  }
  EXPECT_EQ(g_allocations.load(), a0) << "a steady slide called the allocator";
  // Depth swings between 100 and 1,000, shrinking from either end.
  for (int round = 0; round < 20; ++round) {
    while (q.size() < 1000) {
      q.push_back(Elem{});
      check();
    }
    while (q.size() > 100) {
      if (q.size() % 3 == 0) {
        q.pop_back();
      } else {
        q.pop_front();
      }
      check();
    }
  }
  EXPECT_EQ(worst_excess, 0u);
  std::printf("block deque: peak %llu allocations held, %llu after shrinking to %zu elements\n",
              static_cast<unsigned long long>(peak),
              static_cast<unsigned long long>(live() - live0), q.size());
}

TEST(Allocations, RunnerMapAllocatesPerWorkerNotPerTask) {
  // Every sweep, figure and pipeline fan-out goes through map. Its workers
  // claim indices, so a call allocates its result and bookkeeping vectors
  // and one state per thread, whatever the task count. Queuing a closure
  // per task (or two: one in a task vector, one in a pool's job queue)
  // costs thousands of calls more over 4,096 tasks.
  runner::ExperimentRunner pool{{.jobs = 4, .on_progress = {}}};
  const auto allocations_for = [&pool](std::size_t n) {
    const std::uint64_t a0 = g_allocations.load();
    const auto out = pool.map<int>(n, [](std::size_t i) { return static_cast<int>(i); });
    EXPECT_EQ(out.size(), n);
    return g_allocations.load() - a0;
  };
  const std::uint64_t few = allocations_for(64);
  const std::uint64_t many = allocations_for(4096);
  std::printf("runner map at 4 jobs: %llu allocations over 64 tasks, %llu over 4096\n",
              static_cast<unsigned long long>(few), static_cast<unsigned long long>(many));
  EXPECT_LE(many, few + 8);
}

}  // namespace
}  // namespace ccc
