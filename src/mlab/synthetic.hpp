// Synthetic NDT dataset generator.
//
// Substitution for the M-Lab BigQuery archive (see DESIGN.md): we generate
// the same record shape with archetype fractions set from the measurement
// literature the paper cites — most flows short [26], most traffic
// app-limited [33: <40% of traffic neither app- nor host- nor
// receiver-limited], cellular a large minority [32]. Each record carries its
// ground-truth archetype so the passive pipeline's verdicts can be scored.
#pragma once

#include <functional>
#include <vector>

#include "mlab/ndt_record.hpp"
#include "util/rng.hpp"

namespace ccc::mlab {

/// Mix and shape parameters for the synthetic population.
struct SyntheticConfig {
  std::size_t n_flows{9984};  ///< the paper's June-2023 query size

  // Archetype mix (normalized internally). Defaults follow Araújo et al.'s
  // finding that >60% of traffic is app/host/receiver-limited, plus typical
  // NDT short-flow and cellular populations.
  double frac_app_limited_streaming{0.30};
  double frac_app_limited_constant{0.12};
  double frac_short{0.22};
  double frac_rwnd_limited{0.14};
  double frac_bulk_clean{0.12};
  double frac_bulk_contended{0.06};
  double frac_policed{0.04};

  double frac_cellular{0.25};   ///< of all flows, tagged cellular access
  double frac_satellite{0.02};

  double test_duration_sec{10.0};     ///< NDT7 runs ~10 s
  double snapshot_interval_sec{0.1};
  /// Relative throughput noise (std/mean) for stable regions.
  double noise_cv{0.06};
};

/// The corpus is generated in blocks of 64 flows. One base seed is drawn
/// from the caller's Rng, and block b (ids [64 b, 64 b + 64)) is drawn from
/// its own Rng{runner::derive_seed(base, b)}, so a record's bytes depend
/// only on (seed, id): not on the job count, and an n-flow corpus is a
/// prefix of any larger one from the same seed.
///
/// Streams the labeled dataset to `fn`: record ids run [0, n_flows), and
/// `fn` sees them in id order on the calling thread, so a store writer
/// needs no lock. Blocks are generated on runner::ExperimentRunner workers
/// (`jobs` resolved as resolve_jobs does: 0 means CCC_JOBS, else the
/// hardware), at most four blocks ahead of `fn` whatever the job count, so
/// a 10^7-flow population (fig2 --scale) feeds a store writer in constant
/// memory. An exception from `fn` or from generation (a config with no
/// positive archetype fraction throws std::invalid_argument) is rethrown
/// after every worker has stopped.
void generate_dataset_stream(const SyntheticConfig& cfg, Rng& rng,
                             const std::function<void(NdtRecord&&)>& fn, unsigned jobs = 0);

/// The same records as generate_dataset_stream, collected into a vector.
[[nodiscard]] std::vector<NdtRecord> generate_dataset(const SyntheticConfig& cfg, Rng& rng,
                                                      unsigned jobs = 0);

/// Generates a single record of the given archetype (exposed for unit tests
/// of the pipeline's per-archetype behaviour).
[[nodiscard]] NdtRecord generate_record(FlowArchetype archetype, const SyntheticConfig& cfg,
                                        Rng& rng, std::uint64_t id = 0);

}  // namespace ccc::mlab
