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

Workers::Workers(const std::function<void(std::size_t)>& task, std::size_t slots,
                 unsigned count)
    : task_{task}, slots_(slots) {
  threads_.reserve(count);
  try {
    for (unsigned k = 0; k < count; ++k) threads_.emplace_back([this] { work(); });
  } catch (...) {
    stop();  // a joinable std::thread must not be destroyed
    throw;
  }
}

// Stops and joins the workers before the state they use is destroyed. Runs
// on exception paths too.
Workers::~Workers() { stop(); }

void Workers::raise_limit(std::size_t limit) {
  std::size_t raised = 0;
  {
    std::lock_guard lk{mu_};
    if (limit <= limit_) return;
    raised = limit - limit_;
    limit_ = limit;
  }
  // Each notify_one wakes a different waiter, so k calls start k tasks at
  // once; a worker that is busy now claims more when it finishes.
  for (std::size_t k = std::min(raised, threads_.size()); k > 0; --k) claimable_.notify_one();
}

std::exception_ptr Workers::wait_for(std::size_t i) {
  std::unique_lock lk{mu_};
  Slot& slot = slots_[i % slots_.size()];
  ready_.wait(lk, [&] { return slot.done; });
  slot.done = false;
  return std::move(slot.error);
}

void Workers::stop() {
  {
    std::lock_guard lk{mu_};
    stop_ = true;
  }
  claimable_.notify_all();
  for (auto& t : threads_) t.join();
}

void Workers::work() {
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
    {
      std::lock_guard lk{mu_};
      slots_[i % slots_.size()] = {true, std::move(error)};
    }
    ready_.notify_one();  // only the caller waits on ready_
  }
}

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
  // With a progress callback, each task reports on the thread that ran it,
  // one report at a time; a callback that throws fails its task.
  std::mutex progress_mu;
  std::size_t done = 0;
  std::function<void(std::size_t)> reported;
  if (on_progress_) {
    reported = [&](std::size_t i) {
      std::exception_ptr error;
      try {
        task(i);
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::lock_guard lk{progress_mu};
        try {
          on_progress_(++done, n);
        } catch (...) {
          if (!error) error = std::current_exception();
        }
      }
      if (error) std::rethrow_exception(error);
    };
  }
  const auto& run = on_progress_ ? reported : task;

  std::exception_ptr first;  // the lowest-indexed failure wins deterministically
  if (jobs_ <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      try {
        run(i);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
  } else {
    Workers w{run, n, static_cast<unsigned>(std::min<std::size_t>(jobs_, n))};
    w.raise_limit(n);
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

  Workers w{produce, window, static_cast<unsigned>(std::min<std::size_t>(jobs_, window))};
  w.raise_limit(std::min(n, window));
  for (std::size_t i = 0; i < n; ++i) {
    if (auto error = w.wait_for(i)) std::rethrow_exception(error);
    consume(i);
    if (i + window < n) w.raise_limit(i + window + 1);
  }
}

}  // namespace ccc::runner
