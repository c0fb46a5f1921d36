// fork_map — fork-per-task fan-out for memory-isolated parallelism.
//
// The threaded runner (experiment_runner.hpp) shares one address space,
// which is the right tool when tasks are compute-bound over shared
// read-only inputs. It is the wrong tool when each task's working set must
// be RECLAIMED the moment the task finishes: a past-RAM passive run that
// opens dozens of multi-GB ccfs shards in one process accumulates page
// cache, heap high-water marks, and mmap address space until the kernel
// kills it. fork_map gives every task group its own process: a child opens
// only its own shards, and its entire footprint returns to the OS at
// _exit. Nothing is shared — no locks, no atomics, no TSan-visible state;
// the only channel is a pipe carrying each task's serialized result.
//
// Contract:
//   - Tasks are indexed [0, n). Worker j runs tasks j, j+W, j+2W, ... where
//     W = min(procs, n); results come back to the caller in TASK order, so
//     the fan-out is deterministic for any `procs` (same argument as the
//     thread runner's ordered merge).
//   - `work(i)` returns the task's result serialized as bytes. The caller
//     owns the format; fork_map only frames and transports it.
//   - procs <= 1 runs every task inline (no fork) and returns the same
//     blobs — callers get one code path whose procs=1 case is trivially
//     debuggable and sanitizer-friendly.
//   - A task that throws in a child is reported as ccc::Error{kIo} in the
//     parent, carrying the child's rendered what() text. A child that DIES
//     (signal, OOM kill) is also a typed Error — "killed by signal N" —
//     never a hang: the parent reads pipes to EOF and reaps every child.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace ccc::runner {

/// Runs `work(i)` for every i in [0, n) across up to `procs` forked
/// children and returns the n serialized results in task-index order.
/// Throws ccc::Error{kIo} if any child fails or dies; all children are
/// reaped before the throw (no zombies, no orphaned writers).
///
/// `work` must be fork-safe: it runs after fork() in a child that never
/// returns to the caller's stack (results leave via the pipe, the child
/// `_exit`s). Do not fork while other threads hold locks the work needs.
///
/// Test hook: CCC_FORK_MAP_KILL=<worker index> makes that worker raise
/// SIGKILL before producing anything — a stand-in for the OOM killer.
[[nodiscard]] std::vector<std::string> fork_map(
    std::size_t n, std::size_t procs,
    const std::function<std::string(std::size_t)>& work);

}  // namespace ccc::runner
