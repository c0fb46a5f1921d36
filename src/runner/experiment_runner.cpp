#include "runner/experiment_runner.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

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

}  // namespace ccc::runner
