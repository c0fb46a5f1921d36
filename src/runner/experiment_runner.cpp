#include "runner/experiment_runner.hpp"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace ccc::runner {

namespace {

/// The runner's worker threads and the state they share. Each thread claims
/// the next index below a limit the caller raises, runs task(i), reports
/// progress and fills slot i % slots. So no closure is allocated per task,
/// nor freed on a worker: a fan-out allocates per worker, not per task.
/// `progress`, if not null, is called as (done, slots): only run_all
/// passes one, with a slot per task.
class Workers {
 public:
  Workers(const std::function<void(std::size_t)>& task, std::size_t slots, std::size_t limit,
          unsigned count, const ProgressFn* progress)
      : task_{task}, progress_{progress}, slots_(slots), limit_{limit} {
    threads_.reserve(count);
    try {
      for (unsigned k = 0; k < count; ++k) threads_.emplace_back([this] { work(); });
    } catch (...) {
      stop();  // a joinable std::thread must not be destroyed
      throw;
    }
  }

  /// Stops and joins the workers before the state they use is destroyed.
  /// Runs on exception paths too.
  ~Workers() { stop(); }

  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

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

  void stop() {
    {
      std::lock_guard lk{mu_};
      stop_ = true;
    }
    claimable_.notify_all();
    for (auto& t : threads_) t.join();
  }

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
        task_(i);
      } catch (...) {
        error = std::current_exception();
      }
      if (progress_ != nullptr) {
        // Under its own lock, so callbacks never interleave and never hold
        // up a claim. A callback that throws fails its task.
        std::lock_guard lk{progress_mu_};
        try {
          (*progress_)(++done_, slots_.size());
        } catch (...) {
          if (!error) error = std::current_exception();
        }
      }
      {
        std::lock_guard lk{mu_};
        slots_[i % slots_.size()] = {true, std::move(error)};
      }
      ready_.notify_one();
    }
  }

  const std::function<void(std::size_t)>& task_;
  const ProgressFn* progress_;
  std::mutex progress_mu_;  // guards done_ and serializes progress_
  std::size_t done_{0};
  std::mutex mu_;  // guards everything below but threads_
  std::condition_variable claimable_;  // next_ < limit_, or stop_
  std::condition_variable ready_;      // a slot was filled
  std::vector<Slot> slots_;
  std::size_t next_{0};
  std::size_t limit_;
  bool stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace

unsigned parse_job_count(const char* s) {
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  // strtol saturates at LONG_MAX with ERANGE; either way an over-range
  // value is malformed, not a truncated count.
  if (end == nullptr || *end != '\0' || v <= 0 || errno == ERANGE ||
      v > static_cast<long>(std::numeric_limits<unsigned>::max())) {
    return 0;
  }
  return static_cast<unsigned>(v);
}

unsigned resolve_jobs(unsigned requested) {
  if (requested > 0) return requested;
  if (const unsigned env = parse_job_count(std::getenv("CCC_JOBS")); env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t task_index) {
  // splitmix64 over base + index * golden-ratio increment: cheap, stateless,
  // and adjacent indices land in unrelated parts of the stream.
  return util::splitmix64(base_seed + 0x9e37'79b9'7f4a'7c15ull * task_index);
}

ExperimentRunner::ExperimentRunner(RunnerOptions opts)
    : jobs_{resolve_jobs(opts.jobs)}, on_progress_{std::move(opts.on_progress)} {}

void ExperimentRunner::run_all(std::size_t n, const std::function<void(std::size_t)>& task) {
  std::exception_ptr first;  // the lowest-indexed failure wins deterministically
  if (jobs_ <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      try {
        task(i);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
      if (on_progress_) on_progress_(i + 1, n);
    }
  } else {
    Workers w{task, n, n, static_cast<unsigned>(std::min<std::size_t>(jobs_, n)),
              on_progress_ ? &on_progress_ : nullptr};
    for (std::size_t i = 0; i < n; ++i) {
      if (auto error = w.wait_for(i); error && !first) first = std::move(error);
    }
  }  // joins the workers: none still runs a task or a callback after this
  if (first) std::rethrow_exception(first);
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

  Workers w{produce, window, std::min(n, window),
            static_cast<unsigned>(std::min<std::size_t>(jobs_, window)), nullptr};
  for (std::size_t i = 0; i < n; ++i) {
    if (auto error = w.wait_for(i)) std::rethrow_exception(error);
    consume(i);
    if (i + window < n) w.raise_limit(i + window + 1);
  }
}

}  // namespace ccc::runner
