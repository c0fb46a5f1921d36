// Unit tests for the parallel experiment runner (ccc::runner).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/bulk.hpp"
#include "core/cca_registry.hpp"
#include "core/dumbbell.hpp"
#include "runner/experiment_runner.hpp"
#include "util/error.hpp"

namespace ccc::runner {
namespace {

// --- job-count resolution ---

TEST(ResolveJobs, ExplicitRequestWins) {
  ASSERT_EQ(setenv("CCC_JOBS", "3", 1), 0);
  EXPECT_EQ(resolve_jobs(7), 7u);
  unsetenv("CCC_JOBS");
}

TEST(ResolveJobs, EnvOverridesAuto) {
  ASSERT_EQ(setenv("CCC_JOBS", "5", 1), 0);
  EXPECT_EQ(resolve_jobs(0), 5u);
  // Malformed or over-range -> the hardware fallback, never 0 and never a
  // truncated count. resolve_jobs only returns a number; nothing starts.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (const char* bad : {"garbage", "4294967297", "99999999999"}) {
    ASSERT_EQ(setenv("CCC_JOBS", bad, 1), 0);
    EXPECT_EQ(resolve_jobs(0), hw) << "CCC_JOBS=" << bad;
  }
  unsetenv("CCC_JOBS");
}

TEST(ResolveJobs, NeverReturnsZero) {
  unsetenv("CCC_JOBS");
  EXPECT_GE(resolve_jobs(0), 1u);
}

// --- seed isolation ---

TEST(DeriveSeed, DeterministicAndDecorrelated) {
  EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
  EXPECT_NE(derive_seed(42, 0), derive_seed(42, 1));
  EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));
  // Adjacent indices should differ in many bits, not just the low ones.
  const std::uint64_t x = derive_seed(42, 100) ^ derive_seed(42, 101);
  EXPECT_GT(__builtin_popcountll(x), 8);
}

// --- ExperimentRunner semantics ---

TEST(ExperimentRunner, JobsOneRunsSeriallyInOrderOnCallingThread) {
  ExperimentRunner runner{{.jobs = 1}};
  EXPECT_EQ(runner.jobs(), 1u);
  std::vector<std::size_t> order;
  const auto caller = std::this_thread::get_id();
  bool all_on_caller = true;
  runner.run_all(8, [&](std::size_t i) {
    order.push_back(i);  // unsynchronized on purpose: serial mode
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(all_on_caller);
}

TEST(ExperimentRunner, MapPreservesInputOrder) {
  // Fewer tasks than jobs (n = 2 at 8 jobs) and none at all, too.
  const std::pair<std::size_t, unsigned> cases[] = {{64, 4}, {0, 4}, {2, 8}};
  for (const auto& [n, jobs] : cases) {
    ExperimentRunner runner{{.jobs = jobs}};
    const auto out = runner.map<int>(n, [](std::size_t i) { return static_cast<int>(i) * 3; });
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(ExperimentRunner, ExceptionPropagatesWithoutDeadlock) {
  ExperimentRunner runner{{.jobs = 4}};
  std::atomic<int> completed{0};
  EXPECT_THROW(runner.run_all(8,
                              [&completed](std::size_t i) {
                                if (i == 3) throw std::runtime_error{"task 3 failed"};
                                completed.fetch_add(1);
                              }),
               std::runtime_error);
  // Every other task still ran: one failure does not wedge the workers.
  EXPECT_EQ(completed.load(), 7);
  // The runner stays usable afterwards.
  const auto ok = runner.map<int>(4, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(ok, (std::vector<int>{0, 1, 2, 3}));
  // A progress callback that throws on a worker fails that task; it does
  // not end the process.
  RunnerOptions opts;
  opts.jobs = 4;
  opts.on_progress = [](std::size_t done, std::size_t) {
    if (done == 2) throw std::runtime_error{"progress 2"};
  };
  ExperimentRunner throwing_progress{opts};
  EXPECT_THROW(throwing_progress.run_all(8, [](std::size_t) {}), std::runtime_error);
}

TEST(ExperimentRunner, TypedErrorCrossesThePoolIntact) {
  // The rethrow goes through std::exception_ptr, so a worker's ccc::Error
  // reaches the caller with its dynamic type — category, path, and byte
  // offset intact — not sliced down to std::runtime_error. The pipeline's
  // strict mode and guarded_main's exit-code mapping both depend on this.
  for (const unsigned jobs : {1u, 4u}) {
    ExperimentRunner runner{{.jobs = jobs}};
    try {
      runner.run_all(4, [](std::size_t i) {
        if (i == 1) throw Error::corruption("/data/shard.ccfs", "crc mismatch", 64);
      });
      FAIL() << "expected a rethrow (jobs=" << jobs << ")";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kCorruption) << "jobs=" << jobs;
      EXPECT_EQ(e.path(), "/data/shard.ccfs");
      EXPECT_EQ(e.byte_offset(), 64u);
    }
  }
}

TEST(ExperimentRunner, LowestIndexExceptionWinsDeterministically) {
  for (const unsigned jobs : {1u, 4u}) {
    ExperimentRunner runner{{.jobs = jobs}};
    try {
      runner.run_all(6, [](std::size_t i) {
        if (i == 2 || i == 5) throw std::runtime_error{"task " + std::to_string(i)};
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 2") << "jobs=" << jobs;
    }
  }
}

TEST(ExperimentRunner, RunOrderedConsumesInIndexOrderWithinTheWindow) {
  constexpr std::size_t kN = 200;
  constexpr std::size_t kWindow = 3;
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    ExperimentRunner runner{{.jobs = jobs}};
    const auto caller = std::this_thread::get_id();
    std::mutex mu;
    std::size_t in_flight = 0;
    std::size_t most_in_flight = 0;
    // consumed is written on the caller and read by produce(i), which
    // may start only after consume(i - kWindow) returned.
    std::vector<std::atomic<bool>> consumed(kN);
    std::vector<int> produced(kN, 0);
    std::vector<std::size_t> order;
    bool early_start = false;
    bool consume_off_caller = false;
    runner.run_ordered(
        kN, kWindow,
        [&](std::size_t i) {
          {
            std::lock_guard lk{mu};
            most_in_flight = std::max(most_in_flight, ++in_flight);
            if (i >= kWindow && !consumed[i - kWindow].load()) early_start = true;
          }
          produced[i] = static_cast<int>(i) * 7;
          std::lock_guard lk{mu};
          --in_flight;
        },
        [&](std::size_t i) {
          consume_off_caller |= std::this_thread::get_id() != caller;
          EXPECT_EQ(produced[i], static_cast<int>(i) * 7);
          order.push_back(i);
          consumed[i].store(true);
        });
    ASSERT_EQ(order.size(), kN) << "jobs=" << jobs;
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(order[i], i);
    EXPECT_LE(most_in_flight, kWindow) << "jobs=" << jobs;
    EXPECT_FALSE(early_start) << "jobs=" << jobs;
    EXPECT_FALSE(consume_off_caller) << "jobs=" << jobs;
  }
}

TEST(ExperimentRunner, RunOrderedRethrowsTheFirstFailureInIndexOrder) {
  constexpr std::size_t kWindow = 4;
  for (const unsigned jobs : {1u, 4u}) {
    ExperimentRunner runner{{.jobs = jobs}};
    // produce fails at 9 and 11: 9 wins, and only 0..8 are consumed.
    std::vector<std::size_t> consumed;
    try {
      runner.run_ordered(
          40, kWindow,
          [](std::size_t i) {
            if (i == 9 || i == 11) throw std::runtime_error{"produce " + std::to_string(i)};
          },
          [&](std::size_t i) { consumed.push_back(i); });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "produce 9") << "jobs=" << jobs;
    }
    EXPECT_EQ(consumed.size(), 9u) << "jobs=" << jobs;

    // consume fails at 5: nothing past 5 + kWindow - 1 was ever produced,
    // and nothing still runs once the call has returned.
    std::atomic<std::size_t> highest{0};
    std::atomic<int> running{0};
    try {
      runner.run_ordered(
          40, kWindow,
          [&](std::size_t i) {
            running.fetch_add(1);
            std::size_t h = highest.load();
            while (i > h && !highest.compare_exchange_weak(h, i)) {
            }
            std::this_thread::sleep_for(std::chrono::microseconds{200});
            running.fetch_sub(1);
          },
          [](std::size_t i) {
            if (i == 5) throw Error::corruption("/sink", "consume 5", 5);
          });
      FAIL() << "expected a rethrow";
    } catch (const Error& e) {
      EXPECT_EQ(e.byte_offset(), 5u) << "jobs=" << jobs;
    }
    EXPECT_LE(highest.load(), 5 + kWindow - 1) << "jobs=" << jobs;
    EXPECT_EQ(running.load(), 0) << "jobs=" << jobs;
  }
}

TEST(ExperimentRunner, ProgressReportsEveryCompletionMonotonically) {
  std::vector<std::size_t> seen;
  RunnerOptions opts;
  opts.jobs = 4;
  opts.on_progress = [&seen](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, 10u);
    seen.push_back(done);  // serialized by the runner's lock
  };
  ExperimentRunner with_progress{opts};
  with_progress.run_all(10, [](std::size_t) {});
  ASSERT_EQ(seen.size(), 10u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST(ExperimentRunner, ProgressRunsOnTheWorkerThatFinishedTheTask) {
  // perfbench's sweep_grid reads a cell's duration as the time between two
  // progress calls on the same thread, so each call must come from the
  // worker that finished the task, right after it finished.
  static constexpr std::size_t kN = 200;
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(kN);
  std::vector<std::pair<std::thread::id, std::size_t>> calls;
  RunnerOptions opts;
  opts.jobs = 4;
  opts.on_progress = [&calls](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, kN);
    calls.emplace_back(std::this_thread::get_id(), done);  // serialized by the runner
  };
  ExperimentRunner runner{opts};
  runner.run_all(kN, [&ran_on](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
    std::this_thread::sleep_for(std::chrono::microseconds{20});
  });
  ASSERT_EQ(calls.size(), kN);
  std::map<std::thread::id, std::size_t> tasks_per_thread;
  for (const auto& id : ran_on) ++tasks_per_thread[id];
  std::map<std::thread::id, std::size_t> calls_per_thread;
  for (std::size_t k = 0; k < kN; ++k) {
    EXPECT_NE(calls[k].first, caller) << "call " << k;
    EXPECT_EQ(calls[k].second, k + 1);
    ++calls_per_thread[calls[k].first];
  }
  EXPECT_EQ(calls_per_thread, tasks_per_thread);
}

// --- the determinism contract, end to end ---

/// A small dumbbell scenario parameterized by CCA and rate; returns exact
/// per-flow delivered byte counts (bit-identical across reruns by design).
std::vector<ByteCount> run_scenario(const std::string& cca, double mbps, std::uint64_t seed) {
  core::DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::mbps(mbps);
  cfg.one_way_delay = Time::ms(10);
  cfg.reverse_delay = Time::ms(10);
  cfg.seed = seed;
  core::DumbbellScenario net{cfg};
  net.add_flow(core::make_cca_factory(cca)(), std::make_unique<app::BulkApp>());
  net.add_flow(core::make_cca_factory("cubic")(), std::make_unique<app::BulkApp>(), 2,
               Time::sec(0.5));
  net.run_until(Time::sec(3.0));
  return net.snapshot_delivered();
}

TEST(ExperimentRunner, ParallelSweepBitIdenticalToSerial) {
  const std::vector<std::string> ccas{"reno", "cubic", "bbr", "vegas"};
  const std::vector<double> rates{6.0, 10.0, 16.0, 24.0};
  // 16 scenarios: every (cca, rate) pair, each with an isolated seed.
  auto sweep = [&](unsigned jobs) {
    ExperimentRunner runner{{.jobs = jobs}};
    return runner.map<std::vector<ByteCount>>(ccas.size() * rates.size(), [&](std::size_t i) {
      return run_scenario(ccas[i / rates.size()], rates[i % rates.size()],
                          derive_seed(0x5eed, i));
    });
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(8);
  ASSERT_EQ(serial.size(), 16u);
  // Bitwise comparison: integer byte counts must match exactly, scenario by
  // scenario — the scheduler determinism contract survives threading.
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace ccc::runner
