#!/usr/bin/env bash
# Builds and runs the two sanitizer jobs the repo's labels are cut for,
# plus a Debug job that runs the asserts the other two compile out:
#
#   tsan   -DCCC_SANITIZE=thread             ctest -L sanitize
#          (the concurrency tests: the runner's claiming workers behind
#          map and run_ordered, telemetry merge, the jobs-1-vs-jobs-8 pipeline
#          determinism pin, the synthetic generator's block workers:
#          test_mlab's job-count identity and sink-exception tests, and the
#          ingest daemon's analysis workers: test_ingest's jobs-1-vs-jobs-4
#          and strict-error pins, and the CRC's one-time choice between its
#          carry-less and table kernels: test_store's
#          Crc32.ConcurrentCallersAgree)
#
#   asan   -DCCC_SANITIZE=address,undefined
#          ctest -L "robustness|store|pipeline|ingest|sweep|elastic|sim|transport|queue"
#          (the corrupt-input suites: the corruption matrix, faultfs drills,
#          the store/pipeline tests, and the sweep checkpoint/journal suite —
#          where a validation bug shows up as an OOB read/write or UB before
#          it shows up as a wrong answer — plus the event engine's suites,
#          whose heap index arithmetic fails the same way, and test_alloc,
#          the allocation oracle that replaces the global operator new and
#          bounds allocator calls per link packet, and the transport suites —
#          flow, CCA, Nimbus and util — whose SACK-scoreboard cursors,
#          reassembly buffer and windowed min/max deques do too, as does
#          util::BlockDeque, the block container behind every per-packet
#          queue (test_util's model test drives it against std::deque), and
#          util::FlatMap, the key table behind the demux, DRR and per-user
#          isolation (FlatMap.MatchesHashMapModelUnderChurn drives it
#          against std::unordered_map) — and
#          the `queue` suites: the qdisc unit tests, the every-qdisc property
#          sweep, HFQ and the DCTCP/ECN marking tests, whose bucket lists,
#          buffer-stealing scans and shared PacketFifo do as well; DRR's
#          slot reuse is driven by the property sweep's drr_steal case and
#          DrrFairQueue.BufferStealingMatchesFullScanUnderChurn). The
#          finished-flow retirement tests run here too: a heap entry the
#          retirement rule missed shows up as a heap-use-after-free, not as
#          a wrong number. They are Timer.EntriesSumToHeapEntries
#          (test_timer), Scheduler.ReleasedPipeIsReusedForItsNewSink
#          (test_sim), FlatMap.MatchesHashMapModelUnderChurn (test_util),
#          ShortFlowWorkload.RetiresFinishedFlowsWithoutMovingTheRun and
#          TcpFlow.QuiescentWaitsForEveryTimerEntryAndTheReversePipe
#          (test_flow), and Allocations.ShortFlowChurnHoldsLiveFlowsNotArrivals
#          (test_alloc): labels `sim` and `transport`
#
#   debug  -DCMAKE_BUILD_TYPE=Debug (asserts on, no sanitizer)
#          ctest -L "sim|transport|queue"
#          (tsan and asan build RelWithDebInfo, i.e. -DNDEBUG, so only this
#          job runs the Debug-only checks: the scheduler's pipe-front and
#          no-re-entry asserts, sim::Timer's callback-runs-at-its-deadline
#          assert, the sender's SACK-scoreboard audit on every ACK, the
#          scoreboard lookup and scan-cursor oracles, BlockDeque's
#          index bounds asserts, and the retirement asserts: release_pipe
#          takes only an empty pipe (SchedulerDeathTest) and
#          TcpFlow::release_reverse_path only a quiescent flow; test_alloc,
#          test_util and the retirement tests above run here too)
#
# Usage: scripts/run_sanitizers.sh [tsan|asan|debug|all]   (default: all)
# Build trees land in build-tsan/, build-asan/ and build-debug/ next to
# build/.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
which=${1:-all}

run_job() {
  local name=$1 build_type=$2 sanitize=$3 label=$4
  local dir="build-${name}"
  echo "=== ${name}: ${build_type}, CCC_SANITIZE='${sanitize}', ctest -L '${label}' ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE="${build_type}" -DCCC_SANITIZE="${sanitize}"
  cmake --build "${dir}" -j "${jobs}"
  ctest --test-dir "${dir}" -L "${label}" --output-on-failure -j "${jobs}"
}

asan_labels="robustness|store|pipeline|ingest|sweep|elastic|sim|transport|queue"

case "${which}" in
  tsan) run_job tsan RelWithDebInfo thread sanitize ;;
  asan) run_job asan RelWithDebInfo address,undefined "${asan_labels}" ;;
  debug) run_job debug Debug "" "sim|transport|queue" ;;
  all)
    run_job tsan RelWithDebInfo thread sanitize
    run_job asan RelWithDebInfo address,undefined "${asan_labels}"
    run_job debug Debug "" "sim|transport|queue"
    ;;
  *)
    echo "usage: $0 [tsan|asan|debug|all]" >&2
    exit 2
    ;;
esac
