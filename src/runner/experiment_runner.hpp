// ExperimentRunner: fan a sweep of independent simulations out over
// worker threads.
//
// Every figure in the paper is a grid of *independent, deterministic*
// simulations (qdisc x CCA-mix x cross-traffic), so sweeps are
// embarrassingly parallel. Each task owns its scenario outright — its own
// Scheduler, Rng, flows — so workers share nothing and per-scenario results
// are bit-identical to a serial run regardless of the job count. Results are
// returned in input order; completion order is irrelevant to callers.
//
// Job-count resolution (first match wins):
//   1. an explicit `--jobs N` / `--jobs=N` / `-jN` command-line flag
//   2. the CCC_JOBS environment variable
//   3. std::thread::hardware_concurrency()
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ccc::runner {

/// Called (serialized, from worker threads) after each task completes.
using ProgressFn = std::function<void(std::size_t done, std::size_t total)>;

struct RunnerOptions {
  /// Worker count; 0 means "resolve from CCC_JOBS, else hardware
  /// concurrency". 1 runs tasks inline on the calling thread.
  unsigned jobs{0};
  ProgressFn on_progress{};
};

/// Resolves a requested job count per the policy above (requested == 0
/// consults CCC_JOBS, then hardware concurrency; never returns 0).
[[nodiscard]] unsigned resolve_jobs(unsigned requested);

/// Parses a job count, as `--jobs` and CCC_JOBS spell it: a strictly
/// positive integer that fits an unsigned, else 0. Overflow counts as
/// malformed, never as a truncated count.
[[nodiscard]] unsigned parse_job_count(const char* s);

/// Derives an independent per-task seed from a base seed and task index
/// (util::splitmix64). Tasks seeded this way get decorrelated RNG
/// streams that do not depend on the job count or completion order.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t task_index);

/// The runner's one fan-out engine: `count` std::threads, owned by the
/// object, that each claim the next task index below a limit the caller
/// raises, run task(i) and mark slot i % slots done. The caller starts the
/// workers, raises the limit, then collects each index with wait_for(i), in
/// any order; it must collect index i before raising the limit past
/// i + slots. Nothing is allocated per task. The destructor stops the
/// workers: an index not yet claimed never runs, one already claimed runs
/// to the end before the threads are joined. `task` must outlive the object.
class Workers {
 public:
  Workers(const std::function<void(std::size_t)>& task, std::size_t slots, unsigned count);
  ~Workers();

  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  /// Lets the workers claim every index below `limit` (never lowered). A
  /// raise by k wakes up to k idle workers.
  void raise_limit(std::size_t limit);

  /// Waits for task i and returns its exception, if it threw.
  [[nodiscard]] std::exception_ptr wait_for(std::size_t i);

 private:
  struct Slot {
    bool done{false};
    std::exception_ptr error;
  };

  void stop();
  void work();

  const std::function<void(std::size_t)>& task_;
  std::mutex mu_;  // guards everything below but threads_
  std::condition_variable claimable_;  // next_ < limit_, or stop_
  std::condition_variable ready_;      // a slot was filled
  std::vector<Slot> slots_;
  std::size_t next_{0};
  std::size_t limit_{0};
  bool stop_{false};
  std::vector<std::thread> threads_;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions opts = {});

  /// The resolved worker count.
  [[nodiscard]] unsigned jobs() const { return jobs_; }

  /// Runs `task(i)` for every i in [0, n), at most jobs() at a time, and
  /// returns once all have finished. Every task runs even if some throw;
  /// the exception from the lowest-indexed failing task is rethrown
  /// afterwards (deterministic regardless of completion order — and
  /// identical to jobs=1 behaviour). Rethrow preserves the dynamic type
  /// (std::exception_ptr), so a typed ccc::Error from a worker — category,
  /// path, byte offset intact — crosses the thread boundary and reaches the
  /// bench's guarded_main. on_progress runs on the worker that finished
  /// the task (inline on the caller when jobs() == 1); a callback that
  /// throws fails its task.
  void run_all(std::size_t n, const std::function<void(std::size_t)>& task);

  /// Runs `produce(i)` for every i in [0, n) on the workers, at most
  /// `window` at a time, and calls `consume(i)` on the calling thread in
  /// index order once produce(i) has returned. produce(i + window) does not
  /// start before consume(i) returns, so task i's output can live in
  /// caller-owned slot i % window. The first failure in index order, from
  /// produce or consume, is rethrown after the tasks already started have
  /// finished; no later task starts. With jobs() == 1 (or n == 1) the two
  /// alternate on the calling thread. on_progress is not called.
  void run_ordered(std::size_t n, std::size_t window,
                   const std::function<void(std::size_t)>& produce,
                   const std::function<void(std::size_t)>& consume);

  /// Maps `fn` over indices [0, n), returning results in index order.
  /// R must be default-constructible and movable.
  template <typename R>
  [[nodiscard]] std::vector<R> map(std::size_t n,
                                   const std::function<R(std::size_t)>& fn) {
    std::vector<R> out(n);
    run_all(n, [&out, &fn](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  unsigned jobs_;
  ProgressFn on_progress_;
};

}  // namespace ccc::runner
