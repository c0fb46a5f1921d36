#!/usr/bin/env bash
# Builds and runs the two sanitizer jobs the repo's labels are cut for:
#
#   tsan   -DCCC_SANITIZE=thread             ctest -L sanitize
#          (the concurrency tests: runner pool, telemetry merge, the
#          jobs-1-vs-jobs-8 pipeline determinism pin)
#
#   asan   -DCCC_SANITIZE=address,undefined
#          ctest -L "robustness|store|pipeline|ingest|sweep|elastic|sim|transport|queue"
#          (the corrupt-input suites: the corruption matrix, faultfs drills,
#          the store/pipeline tests, and the sweep checkpoint/journal suite —
#          where a validation bug shows up as an OOB read/write or UB before
#          it shows up as a wrong answer — plus the event engine's suites,
#          whose wheel/ready/batch and active-batch-list index arithmetic
#          fails the same way, and the transport suites — flow, CCA, Nimbus
#          and util — whose SACK-scoreboard cursors, reassembly buffer and
#          windowed min/max deques do too — and the `queue` suites: the
#          qdisc unit tests, the every-qdisc property sweep, HFQ and the
#          DCTCP/ECN marking tests, whose bucket lists, buffer-stealing scan
#          and shared PacketFifo do as well)
#
# Usage: scripts/run_sanitizers.sh [tsan|asan|all]   (default: all)
# Build trees land in build-tsan/ and build-asan/ next to build/.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
which=${1:-all}

run_job() {
  local name=$1 sanitize=$2 label=$3
  local dir="build-${name}"
  echo "=== ${name}: CCC_SANITIZE=${sanitize}, ctest -L '${label}' ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCCC_SANITIZE="${sanitize}"
  cmake --build "${dir}" -j "${jobs}"
  ctest --test-dir "${dir}" -L "${label}" --output-on-failure -j "${jobs}"
}

case "${which}" in
  tsan) run_job tsan thread sanitize ;;
  asan) run_job asan address,undefined "robustness|store|pipeline|ingest|sweep|elastic|sim|transport|queue" ;;
  all)
    run_job tsan thread sanitize
    run_job asan address,undefined "robustness|store|pipeline|ingest|sweep|elastic|sim|transport|queue"
    ;;
  *)
    echo "usage: $0 [tsan|asan|all]" >&2
    exit 2
    ;;
esac
