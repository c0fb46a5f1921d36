// perfbench: runs one workload of the ccascope benchmark and prints its
// result as the last line of stdout, one JSON object:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status 0 means a result was printed; anything else prints none.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument{"missing value for " + flag};
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument{"--trace takes 0 or 1"};
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      throw std::invalid_argument{"unknown flag " + flag};
    }
  }
  if (!have_workload || !have_seconds || o.work_dir.empty()) {
    throw std::invalid_argument{"--workload, --seconds and --work-dir are required"};
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Options opts = parse(argc, argv);
    const perfbench::Report rep = perfbench::run_workload(opts);
    for (const auto& line : rep.notes) std::cout << line << "\n";
    std::cout << "{\"correct\": " << (rep.correct ? "true" : "false")
              << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
      const auto& m = rep.metrics[i];
      std::cout << (i == 0 ? "" : ", ") << "\"" << json_escape(m.name)
                << "\": {\"value\": " << perfbench::fmt17(m.value) << ", \"unit\": \""
                << json_escape(m.unit) << "\"}";
    }
    std::cout << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
