// bench::Cli — the one command-line contract shared by every bench binary.
//
// Before this existed each bench hand-rolled its own argv scan (or took no
// flags at all), so sweep scripts couldn't rely on a uniform interface. Now
// all benches accept:
//
//   --jobs N | --jobs=N | -j N | -jN   worker threads (0 = auto-resolve)
//   --seed N                           base RNG seed override
//   --duration S                       run length override, in seconds
//   --out PATH                         redirect the human-readable table
//   --report PATH                      machine-readable RunReport (JSONL, or
//                                      CSV when PATH ends in .csv)
//   --serial                           force the serial (jobs=1) code path
//   --input PATH                       input dataset path (bench-specific
//                                      formats; parse() only records it)
//   --scale N                          dataset scale multiplier, >= 1
//   --readahead N                      store readahead window in flows
//   --strict                           fail fast on corrupt input instead of
//                                      skip-count-and-continue
//   --grid SPEC                        scenario-grid override (sweep benches;
//                                      parse() only records the string)
//   --checkpoint PATH                  cell-completion journal path
//   --resume                           skip cells already in the journal
//   --repeat N                         run each measured scope N times and
//                                      keep the best (micro benches; parse()
//                                      only records the count)
//   --service                          route the bench through the streaming
//                                      elasticity service instead of the
//                                      offline classifier (fig3; parse()
//                                      only records the flag)
//   --procs N                          worker *processes* for the passive
//                                      pipeline (fork-per-shard-group; 1 =
//                                      in-process, the default)
//   --help | -h                        print usage and exit
//
// (--input/--scale/--readahead/--strict were hand-parsed by fig2 alone
// until PR 7; the ingest daemon needed the same surface, so they moved into
// the shared contract — every bench now gets the same strict value parsing,
// range checks, and --help text for them.)
//
// Unrecognized arguments are retained in `rest` so wrappers (notably
// google-benchmark's own flag parser in micro benches) still see them.
// Interpretation of --seed/--duration is up to the bench: parse() only
// records the values, and `seed_or`/`duration_or` supply the bench's
// defaults — so a bench run with no flags reproduces its historical output
// byte for byte.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace ccc::bench {

/// The error boundary every bench main runs inside. PRs 1-4 let a corrupt
/// input escape main() as an uncaught exception (std::terminate, core dump,
/// no usable message); guarded_main converts that into the bench exit-code
/// contract instead:
///
///   return value of `body`  passed through (0 ok / 1 shape-check fail /
///                           2 usage error, as before)
///   uncaught ccc::Error     "<bench>: error: [<category>] ..." on stderr;
///                           exit 2 for kConfig (usage territory), 1 for
///                           io/format/corruption (the run failed)
///   other std::exception    "<bench>: error: ..." on stderr; exit 1
///
/// Usage: int main(int argc, char** argv) {
///          return ccc::bench::guarded_main("fig7_...", [&] { ... });
///        }
[[nodiscard]] int guarded_main(std::string_view bench_name, const std::function<int()>& body);

class Cli {
 public:
  /// Parses argv. If `bench_name` is non-empty this is the bench's main
  /// entry: `--help` prints usage for that bench and exits 0, and a
  /// malformed flag value prints an error and exits 2. With an empty name
  /// (library callers and tests) parsing never exits and malformed values
  /// are treated as absent.
  static Cli parse(int argc, char** argv, std::string_view bench_name = {});

  /// The usage text `--help` prints.
  static std::string usage(std::string_view bench_name);

  // Parsed flags. Zero/empty means "absent" except where a has_* flag says
  // otherwise.
  unsigned jobs{0};  ///< 0 = resolve from CCC_JOBS / hardware concurrency
  bool has_seed{false};
  std::uint64_t seed{0};
  bool has_duration{false};
  double duration_sec{0.0};
  std::string out;     ///< "" = stdout
  std::string report;  ///< "" = no machine-readable report
  bool serial{false};
  bool help{false};
  std::string input;  ///< input dataset path; "" = bench default (synthetic)
  bool has_scale{false};
  std::size_t scale{0};  ///< dataset scale multiplier; valid values are >= 1
  std::size_t readahead{0};  ///< store readahead window in flows; 0 = off
  bool strict{false};  ///< fail fast on corrupt input instead of degrading
  std::string grid;        ///< scenario-grid spec; "" = the bench's default grid
  std::string checkpoint;  ///< cell journal path; "" = no checkpointing
  bool resume{false};      ///< load the journal and skip completed cells
  std::size_t repeat{0};   ///< best-of-N repetitions; 0 = bench default
  std::size_t procs{0};    ///< pipeline worker processes; 0 = bench default (1)
  bool service{false};     ///< run the streaming-service variant (fig3)
  std::vector<std::string> rest;  ///< unrecognized argv entries, in order

  /// Range caps for the shared count flags (enforced by parse; public so
  /// benches can echo them in their own diagnostics).
  static constexpr std::uint64_t kMaxScale = 1'000'000;       // ~10^10 flows
  static constexpr std::uint64_t kMaxReadahead = 100'000'000;
  static constexpr std::uint64_t kMaxRepeat = 1'000;
  static constexpr std::uint64_t kMaxProcs = 256;

  [[nodiscard]] std::uint64_t seed_or(std::uint64_t fallback) const {
    return has_seed ? seed : fallback;
  }
  [[nodiscard]] Time duration_or(Time fallback) const {
    return has_duration ? Time::sec(duration_sec) : fallback;
  }
  [[nodiscard]] std::size_t repeat_or(std::size_t fallback) const {
    return repeat != 0 ? repeat : fallback;
  }
  [[nodiscard]] std::size_t procs_or(std::size_t fallback) const {
    return procs != 0 ? procs : fallback;
  }

  /// The stream bench tables should print to: the `--out` file when given
  /// (opened lazily, exits 2 if unopenable in bench-main mode), else
  /// std::cout.
  [[nodiscard]] std::ostream& output();

 private:
  std::string bench_name_;
  std::ofstream out_file_;
  bool out_opened_{false};
};

}  // namespace ccc::bench
