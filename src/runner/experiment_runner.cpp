#include "runner/experiment_runner.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/cli.hpp"
#include "runner/thread_pool.hpp"
#include "util/rng.hpp"

namespace ccc::runner {

namespace {

/// Parses a strictly positive integer; returns 0 on any malformed input.
unsigned parse_jobs(const char* s) {
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == nullptr || *end != '\0' || v <= 0) return 0;
  return static_cast<unsigned>(v);
}

/// run_ordered's workers and the state they share. Each worker is one pool
/// job for the whole call: it claims the next index below a limit the
/// caller raises as it consumes, and reports into slot i % window. So no
/// closure is allocated per task, nor freed on a worker.
class OrderedWindow {
 public:
  OrderedWindow(const std::function<void(std::size_t)>& produce, std::size_t window,
                std::size_t limit, unsigned workers)
      : produce_{produce}, slots_(window), limit_{limit}, pool_{workers} {
    for (unsigned k = 0; k < workers; ++k) pool_.submit([this] { work(); });
  }

  /// Stops the workers; pool_, the last member, then joins them before the
  /// state they use is destroyed. Runs on exception paths too.
  ~OrderedWindow() {
    {
      std::lock_guard lk{mu_};
      stop_ = true;
    }
    claimable_.notify_all();
  }

  OrderedWindow(const OrderedWindow&) = delete;
  OrderedWindow& operator=(const OrderedWindow&) = delete;

  /// Waits for task i and returns its exception, if it threw.
  std::exception_ptr wait_for(std::size_t i) {
    std::unique_lock lk{mu_};
    Slot& slot = slots_[i % slots_.size()];
    ready_.wait(lk, [&] { return slot.done; });
    slot.done = false;
    return std::move(slot.error);
  }

  /// Lets workers claim every index below `limit`.
  void raise_limit(std::size_t limit) {
    {
      std::lock_guard lk{mu_};
      limit_ = limit;
    }
    claimable_.notify_one();
  }

 private:
  struct Slot {
    bool done{false};
    std::exception_ptr error;
  };

  void work() {
    for (;;) {
      std::size_t i = 0;
      {
        std::unique_lock lk{mu_};
        claimable_.wait(lk, [this] { return stop_ || next_ < limit_; });
        if (stop_) return;
        i = next_++;
      }
      std::exception_ptr error;
      try {
        produce_(i);
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::lock_guard lk{mu_};
        slots_[i % slots_.size()] = {true, std::move(error)};
      }
      ready_.notify_one();
    }
  }

  const std::function<void(std::size_t)>& produce_;
  std::mutex mu_;  // guards everything below but pool_
  std::condition_variable claimable_;  // next_ < limit_, or stop_
  std::condition_variable ready_;      // a slot was filled
  std::vector<Slot> slots_;
  std::size_t next_{0};
  std::size_t limit_;
  bool stop_{false};
  ThreadPool pool_;
};

}  // namespace

unsigned resolve_jobs(unsigned requested) {
  if (requested > 0) return requested;
  if (const unsigned env = parse_jobs(std::getenv("CCC_JOBS")); env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

unsigned jobs_from_cli(int argc, char** argv, unsigned fallback) {
  // Thin wrapper over the shared bench CLI so one grammar serves both the
  // runner and the bench binaries (non-strict parse: malformed == absent).
  const bench::Cli cli = bench::Cli::parse(argc, argv);
  return cli.jobs > 0 ? cli.jobs : fallback;
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t task_index) {
  // splitmix64 over base + index * golden-ratio increment: cheap, stateless,
  // and adjacent indices land in unrelated parts of the stream.
  return util::splitmix64(base_seed + 0x9e37'79b9'7f4a'7c15ull * task_index);
}

ExperimentRunner::ExperimentRunner(RunnerOptions opts)
    : jobs_{resolve_jobs(opts.jobs)}, on_progress_{std::move(opts.on_progress)} {}

void ExperimentRunner::run_all(const std::vector<std::function<void()>>& tasks) {
  const std::size_t total = tasks.size();
  if (total == 0) return;
  // One slot per task: the lowest-indexed exception wins deterministically.
  std::vector<std::exception_ptr> errors(total);

  if (jobs_ <= 1 || total == 1) {
    for (std::size_t i = 0; i < total; ++i) {
      try {
        tasks[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
      if (on_progress_) on_progress_(i + 1, total);
    }
  } else {
    const auto workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, total));
    std::mutex mu;
    std::condition_variable all_done;
    std::size_t done = 0;
    {
      ThreadPool pool{workers};
      for (std::size_t i = 0; i < total; ++i) {
        pool.submit([this, &tasks, &errors, &mu, &all_done, &done, total, i] {
          try {
            tasks[i]();
          } catch (...) {
            errors[i] = std::current_exception();
          }
          std::size_t finished;
          {
            std::lock_guard lk{mu};
            finished = ++done;
            // Progress runs under the lock so callbacks never interleave.
            if (on_progress_) on_progress_(finished, total);
          }
          if (finished == total) all_done.notify_one();
        });
      }
      std::unique_lock lk{mu};
      all_done.wait(lk, [&] { return done == total; });
    }  // joins the pool — no worker still touches errors/done after this
  }

  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void ExperimentRunner::run_ordered(std::size_t n, std::size_t window,
                                   const std::function<void(std::size_t)>& produce,
                                   const std::function<void(std::size_t)>& consume) {
  window = std::max<std::size_t>(window, 1);
  if (jobs_ <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      produce(i);
      consume(i);
    }
    return;
  }

  OrderedWindow w{produce, window, std::min(n, window),
                  static_cast<unsigned>(std::min<std::size_t>(jobs_, window))};
  for (std::size_t i = 0; i < n; ++i) {
    if (auto error = w.wait_for(i)) std::rethrow_exception(error);
    consume(i);
    if (i + window < n) w.raise_limit(i + window + 1);
  }
}

}  // namespace ccc::runner
