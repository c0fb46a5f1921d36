// mlab_passive_study: run the §3.1 passive pipeline over a synthetic NDT
// dataset and print per-category results — a compact version of the
// fig2_mlab_passive bench that you can point at your own mix.
//
// Usage: mlab_passive_study [n_flows] [seed]
#include <cstdlib>
#include <iostream>

#include "mlab/synthetic.hpp"
#include "pipeline/pipeline.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ccc;

  mlab::SyntheticConfig scfg;
  scfg.n_flows = argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 2000;
  Rng rng{argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 1u};

  std::cout << "generating " << scfg.n_flows << " synthetic NDT flow records...\n";
  const auto dataset = mlab::generate_dataset(scfg, rng);
  const auto report =
      pipeline::run_pipeline(pipeline::MemorySource{dataset}, {.enable_telemetry = false});

  TextTable t{{"verdict", "flows", "fraction"}};
  for (const auto& [v, c] : report.verdict_map()) {
    t.add_row({std::string{pipeline::to_string(v)}, std::to_string(c),
               TextTable::num(static_cast<double>(c) / report.flows, 3)});
  }
  t.print(std::cout);

  std::cout << "\npipeline scoring vs ground truth:\n"
            << "  precision " << TextTable::num(report.precision(), 3) << ", recall "
            << TextTable::num(report.recall(), 3) << "\n"
            << "  " << report.false_positives
            << " false positives — mostly policed flows whose token-bucket step\n"
            << "  is indistinguishable from a competing flow arriving. This is the\n"
            << "  paper's point: passive analysis cannot settle the question, which\n"
            << "  is why it proposes the active elasticity probe (see\n"
            << "  examples/elasticity_probe.cpp).\n";
  return 0;
}
