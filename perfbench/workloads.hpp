// The benchmark's four workloads. Each runs closed-loop rounds of fixed work
// through ccascope's public API until the time budget is spent, checks its
// outputs, and returns every metric by name and unit (see README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{0.0};  ///< time budget of the closed loop
  bool trace{false};
  std::string work_dir;  ///< scratch space for spool, journal and shards
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

struct Report {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines printed before the result
};

/// Throws std::exception on a setup failure (no result is printed then).
[[nodiscard]] Report run_workload(const Options& opts);

/// A double with all its digits (%.17g), as digests print them.
[[nodiscard]] std::string fmt17(double v);

}  // namespace perfbench
