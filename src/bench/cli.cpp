#include "bench/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>

#include "runner/experiment_runner.hpp"
#include "util/error.hpp"

namespace ccc::bench {

namespace {

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 0);  // 0: accept 0x...
  // ERANGE: strtoull saturates at ULLONG_MAX — an over-range seed must be
  // rejected, not silently clamped. strtoull also wraps "-1" to 2^64-1
  // without an error; a leading '-' is not a seed.
  if (end == nullptr || *end != '\0' || errno == ERANGE || *s == '-') return false;
  out = v;
  return true;
}

bool parse_seconds(const char* s, double& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == nullptr || *end != '\0' || !(v > 0.0)) return false;
  out = v;
  return true;
}

[[noreturn]] void die(std::string_view bench_name, const std::string& msg) {
  std::cerr << bench_name << ": " << msg << "\n"
            << Cli::usage(bench_name);
  std::exit(2);
}

/// Bounded flow/scale count, the strict contract fig2 pioneered: garbage
/// ("abc", "12x"), negatives ("-3" — strtoull would silently wrap it),
/// overflow, and anything past `max` are rejected, never clamped. Returns
/// false with `err` set to the complaint (the caller decides whether that
/// dies or is treated as absent).
bool parse_count(const std::string& flag, const char* s, std::uint64_t max, std::uint64_t min,
                 std::uint64_t& out, std::string& err) {
  const std::string v = s == nullptr ? "" : s;
  const std::string want =
      " (want an integer >= " + std::to_string(min) + ")";
  if (v.empty()) {
    err = flag + " needs a value";
    return false;
  }
  if (v.front() == '-') {
    err = "invalid " + flag + " value '" + v + "'" + want;
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == v.c_str()) {
    err = "invalid " + flag + " value '" + v + "'" + want;
    return false;
  }
  if (errno == ERANGE || x > max) {
    err = flag + " value '" + v + "' out of range (max " + std::to_string(max) + ")";
    return false;
  }
  if (x < min) {
    err = flag + " must be >= " + std::to_string(min);
    return false;
  }
  out = static_cast<std::uint64_t>(x);
  return true;
}

}  // namespace

int guarded_main(std::string_view bench_name, const std::function<int()>& body) {
  try {
    return body();
  } catch (const ccc::Error& e) {
    std::cerr << bench_name << ": error: " << e.what() << "\n";
    return e.category() == ErrorCategory::kConfig ? 2 : 1;
  } catch (const std::exception& e) {
    std::cerr << bench_name << ": error: " << e.what() << "\n";
    return 1;
  }
}

std::string Cli::usage(std::string_view bench_name) {
  std::string u;
  u += "usage: ";
  u += bench_name.empty() ? "bench" : bench_name;
  u += " [options]\n";
  u +=
      "  --jobs N, -jN     worker threads for the sweep (default: CCC_JOBS,\n"
      "                    else hardware concurrency)\n"
      "  --seed N          base RNG seed (default: the bench's built-in seed)\n"
      "  --duration S      run length in seconds (default: bench-specific)\n"
      "  --out PATH        write the human-readable table to PATH\n"
      "  --report PATH     write a machine-readable RunReport; JSONL, or CSV\n"
      "                    when PATH ends in .csv\n"
      "  --serial          force the serial (jobs=1) code path\n"
      "  --input PATH      analyze an existing dataset instead of generating\n"
      "                    one (formats are bench-specific; fig2/ingestd take\n"
      "                    .csv or .ccfs)\n"
      "  --scale N         dataset scale multiplier, 1..1000000\n"
      "  --readahead N     store readahead window in flows (0 = off,\n"
      "                    max 100000000); purely a performance hint\n"
      "  --strict          fail fast on the first corrupt shard/record\n"
      "                    instead of the default skip-count-and-continue\n"
      "  --grid SPEC       scenario-grid override for sweep benches, e.g.\n"
      "                    \"cca=reno,cubic;qdisc=droptail,fq_codel;buf=0.5,2\"\n"
      "  --checkpoint PATH journal completed cells to PATH (crash-safe)\n"
      "  --resume          skip cells already recorded in --checkpoint\n"
      "  --repeat N        run each measured scope N times, report the best\n"
      "                    (micro benches; default 3, max 1000)\n"
      "  --procs N         worker processes for the passive pipeline\n"
      "                    (fork per shard group; default 1 = in-process,\n"
      "                    max 256)\n"
      "  --service         replay the scenarios through the streaming\n"
      "                    elasticity service and score verdict agreement\n"
      "                    against the offline classifier (fig3)\n"
      "  --help, -h        this text\n";
  return u;
}

Cli Cli::parse(int argc, char** argv, std::string_view bench_name) {
  Cli cli;
  cli.bench_name_ = std::string{bench_name};
  const bool strict = !bench_name.empty();

  for (int i = 1; i < argc; ++i) {
    const std::string arg{argv[i]};
    // Flags taking a value accept both "--flag V" and "--flag=V".
    auto value_of = [&](const std::string& flag) -> const char* {
      if (arg == flag && i + 1 < argc) return argv[++i];
      if (arg.rfind(flag + "=", 0) == 0) return arg.c_str() + flag.size() + 1;
      return nullptr;
    };

    if (arg == "--help" || arg == "-h") {
      cli.help = true;
    } else if (const char* v = value_of("--jobs"); v != nullptr) {
      cli.jobs = runner::parse_job_count(v);
      if (cli.jobs == 0 && strict) die(bench_name, "invalid --jobs value '" + std::string{v} + "'");
    } else if (arg == "-j" && i + 1 < argc) {
      cli.jobs = runner::parse_job_count(argv[++i]);
      if (cli.jobs == 0 && strict)
        die(bench_name, "invalid -j value '" + std::string{argv[i]} + "'");
    } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
      cli.jobs = runner::parse_job_count(arg.c_str() + 2);
      if (cli.jobs == 0 && strict) die(bench_name, "invalid -j value '" + arg.substr(2) + "'");
    } else if (const char* v = value_of("--seed"); v != nullptr) {
      cli.has_seed = parse_u64(v, cli.seed);
      if (!cli.has_seed && strict)
        die(bench_name, "invalid --seed value '" + std::string{v} + "'");
    } else if (const char* v = value_of("--duration"); v != nullptr) {
      cli.has_duration = parse_seconds(v, cli.duration_sec);
      if (!cli.has_duration && strict)
        die(bench_name, "invalid --duration value '" + std::string{v} + "' (want seconds > 0)");
    } else if (const char* v = value_of("--out"); v != nullptr) {
      cli.out = v;
    } else if (const char* v = value_of("--report"); v != nullptr) {
      cli.report = v;
    } else if (arg == "--serial") {
      cli.serial = true;
    } else if (const char* v = value_of("--input"); v != nullptr || arg == "--input") {
      // "--input" with no following value must not be silently dropped.
      if (v == nullptr || *v == '\0') {
        if (strict) die(bench_name, "--input needs a path");
      } else {
        cli.input = v;
      }
    } else if (const char* v = value_of("--scale"); v != nullptr || arg == "--scale") {
      std::uint64_t x = 0;
      std::string err;
      if (parse_count("--scale", v, kMaxScale, 1, x, err)) {
        cli.scale = static_cast<std::size_t>(x);
        cli.has_scale = true;
      } else if (strict) {
        die(bench_name, err);
      }
    } else if (const char* v = value_of("--readahead"); v != nullptr || arg == "--readahead") {
      std::uint64_t x = 0;
      std::string err;
      if (parse_count("--readahead", v, kMaxReadahead, 0, x, err)) {
        cli.readahead = static_cast<std::size_t>(x);
      } else if (strict) {
        die(bench_name, err);
      }
    } else if (arg == "--strict") {
      cli.strict = true;
    } else if (const char* v = value_of("--grid"); v != nullptr || arg == "--grid") {
      // Like --input: a present-but-valueless flag must not vanish
      // silently. The spec's content is validated by the bench's grid
      // parser (exit 2 via guarded_main on a malformed axis), not here.
      if (v == nullptr || *v == '\0') {
        if (strict) die(bench_name, "--grid needs a value");
      } else {
        cli.grid = v;
      }
    } else if (const char* v = value_of("--checkpoint"); v != nullptr || arg == "--checkpoint") {
      if (v == nullptr || *v == '\0') {
        if (strict) die(bench_name, "--checkpoint needs a path");
      } else {
        cli.checkpoint = v;
      }
    } else if (arg == "--resume") {
      cli.resume = true;
    } else if (arg == "--service") {
      cli.service = true;
    } else if (const char* v = value_of("--repeat"); v != nullptr || arg == "--repeat") {
      std::uint64_t x = 0;
      std::string err;
      if (parse_count("--repeat", v, kMaxRepeat, 1, x, err)) {
        cli.repeat = static_cast<std::size_t>(x);
      } else if (strict) {
        die(bench_name, err);
      }
    } else if (const char* v = value_of("--procs"); v != nullptr || arg == "--procs") {
      std::uint64_t x = 0;
      std::string err;
      if (parse_count("--procs", v, kMaxProcs, 1, x, err)) {
        cli.procs = static_cast<std::size_t>(x);
      } else if (strict) {
        die(bench_name, err);
      }
    } else {
      cli.rest.push_back(arg);
    }
  }

  if (cli.help && strict) {
    std::cout << usage(bench_name);
    std::exit(0);
  }
  return cli;
}

std::ostream& Cli::output() {
  if (out.empty()) return std::cout;
  if (!out_opened_) {
    out_file_.open(out);
    out_opened_ = true;
    if (!out_file_ && !bench_name_.empty()) {
      std::cerr << bench_name_ << ": cannot open --out file '" << out << "'\n";
      std::exit(2);
    }
  }
  return out_file_;
}

}  // namespace ccc::bench
