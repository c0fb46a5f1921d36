#include "mlab/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "runner/experiment_runner.hpp"

namespace ccc::mlab {

namespace {

/// Flows per seeded block, and blocks generated ahead of the sink: the
/// bound on the records generate_dataset_stream holds.
constexpr std::size_t kBlockFlows = 64;
constexpr std::size_t kBlocksInFlight = 4;

/// A short flow's duration is drawn below this.
constexpr double kShortFlowMaxSec = 1.2;

/// Draws a plausible access-link capacity (Mbps) for a non-cellular client,
/// loosely following broadband plan tiers.
double draw_capacity_mbps(Rng& rng) {
  static const double tiers[] = {10, 25, 50, 100, 200, 300, 500, 940};
  static const std::vector<double> weights = {0.05, 0.10, 0.15, 0.30, 0.18, 0.12, 0.07, 0.03};
  return tiers[rng.weighted_index(weights)];
}

/// generate_record's body, writing into `rec`. Every field is reset, but
/// the series keeps its buffer, so a reused record does not allocate
/// while the buffer is large enough.
void fill_record(NdtRecord& rec, FlowArchetype archetype, const SyntheticConfig& cfg, Rng& rng,
                 std::uint64_t id) {
  std::vector<double> series = std::move(rec.throughput_mbps);
  rec = NdtRecord{};
  rec.throughput_mbps = std::move(series);
  rec.id = id;
  rec.truth = archetype;
  rec.snapshot_interval_sec = cfg.snapshot_interval_sec;
  rec.duration_sec = cfg.test_duration_sec;

  // One unit normal for the whole record: libstdc++'s polar method makes
  // two variates per log/sqrt, and only a kept distribution hands out the
  // second (Rng::normal builds a fresh one per call and drops it).
  std::normal_distribution<double> unit_normal;
  const auto noise = [&](double sigma) { return sigma * unit_normal(rng.engine()); };
  const auto fill_noise = [&](std::vector<double>& v, double mean, double cv) {
    for (double& x : v) x = std::max(0.05, mean * (1.0 + noise(cv)));
  };

  // Access type.
  const double u = rng.uniform();
  if (u < cfg.frac_cellular) {
    rec.access = AccessType::kCellular;
  } else if (u < cfg.frac_cellular + cfg.frac_satellite) {
    rec.access = AccessType::kSatellite;
  } else {
    static const AccessType wired[] = {AccessType::kFiber, AccessType::kCable, AccessType::kDsl};
    rec.access = wired[rng.uniform_int(0, 2)];
  }

  const double cap = draw_capacity_mbps(rng);
  rec.min_rtt_ms = std::exp(std::log(20.0) + noise(0.6));
  const auto n_snaps = static_cast<std::size_t>(rec.duration_sec / rec.snapshot_interval_sec);
  rec.throughput_mbps.assign(n_snaps, 0.0);

  switch (archetype) {
    case FlowArchetype::kAppLimitedStreaming: {
      // ABR ladder steps: starts low, converges to the sustainable rung,
      // with on/off chunking visible as moderate extra variance.
      static const double ladder[] = {0.35, 0.75, 1.75, 3.0, 5.8, 12.0, 24.0};
      std::size_t rung = 0;
      const double budget = std::min(cap * 0.8, 24.0);
      std::size_t target = 0;
      for (std::size_t i = 0; i < std::size(ladder); ++i) {
        if (ladder[i] <= budget) target = i;
      }
      for (std::size_t i = 0; i < n_snaps; ++i) {
        if (rung < target && i > 0 && i % 15 == 0) ++rung;  // ~1.5 s per upswitch
        rec.throughput_mbps[i] =
            std::max(0.05, ladder[rung] * (1.0 + noise(3 * cfg.noise_cv)));
      }
      rec.app_limited_sec = rec.duration_sec * rng.uniform(0.6, 0.95);
      break;
    }
    case FlowArchetype::kAppLimitedConstant: {
      const double rate = std::min(cap, 30.0) * rng.uniform(0.2, 0.8);
      fill_noise(rec.throughput_mbps, rate, cfg.noise_cv);
      rec.app_limited_sec = rec.duration_sec * rng.uniform(0.7, 0.98);
      break;
    }
    case FlowArchetype::kShortFlow: {
      // Finishes in a handful of snapshots (initial-window + a few RTTs).
      rec.duration_sec = rng.uniform(0.05, kShortFlowMaxSec);
      const auto k = std::max<std::size_t>(
          1, static_cast<std::size_t>(rec.duration_sec / rec.snapshot_interval_sec));
      rec.throughput_mbps.assign(k, 0.0);
      fill_noise(rec.throughput_mbps, cap * rng.uniform(0.05, 0.4), 3 * cfg.noise_cv);
      rec.app_limited_sec = rec.duration_sec * rng.uniform(0.2, 0.8);
      break;
    }
    case FlowArchetype::kRwndLimited: {
      // Throughput pinned at rwnd/RTT, typically well under capacity.
      const double pinned = cap * rng.uniform(0.15, 0.5);
      fill_noise(rec.throughput_mbps, pinned, cfg.noise_cv);
      rec.rwnd_limited_sec = rec.duration_sec * rng.uniform(0.5, 0.95);
      break;
    }
    case FlowArchetype::kBulkClean: {
      // Sole occupant: holds ~capacity with loss-sawtooth ripple.
      fill_noise(rec.throughput_mbps, cap * rng.uniform(0.85, 0.97), 1.5 * cfg.noise_cv);
      break;
    }
    case FlowArchetype::kBulkContended: {
      // A competing backlogged flow arrives (and possibly leaves): the
      // flow's share steps between ~full and ~1/2 (or ~1/3) of capacity.
      const double solo = cap * rng.uniform(0.85, 0.97);
      const int competitors = rng.chance(0.3) ? 2 : 1;
      const double shared = solo / (1.0 + competitors);
      const auto arrive = static_cast<std::size_t>(
          static_cast<double>(n_snaps) * rng.uniform(0.15, 0.55));
      std::size_t depart = n_snaps;
      if (rng.chance(0.4)) {
        depart = arrive + static_cast<std::size_t>(static_cast<double>(n_snaps - arrive) *
                                                   rng.uniform(0.4, 0.9));
      }
      for (std::size_t i = 0; i < n_snaps; ++i) {
        const double level = (i >= arrive && i < depart) ? shared : solo;
        // Contention adds sawtooth variance on top of the level.
        rec.throughput_mbps[i] =
            std::max(0.05, level * (1.0 + noise(2.5 * cfg.noise_cv)));
      }
      break;
    }
    case FlowArchetype::kPoliced: {
      // Token bucket: initial burst at capacity until tokens run dry, then a
      // hard flat policed rate — the classic Flach et al. signature, which a
      // naive level-shift detector cannot distinguish from contention.
      const double policed = cap * rng.uniform(0.2, 0.5);
      const auto burst_end = static_cast<std::size_t>(
          static_cast<double>(n_snaps) * rng.uniform(0.08, 0.25));
      for (std::size_t i = 0; i < n_snaps; ++i) {
        const double level = i < burst_end ? cap * 0.95 : policed;
        rec.throughput_mbps[i] =
            std::max(0.05, level * (1.0 + noise(cfg.noise_cv)));
      }
      break;
    }
  }

  // Cellular/satellite access adds strong capacity variation on top.
  if (rec.access == AccessType::kCellular || rec.access == AccessType::kSatellite) {
    double walk = 1.0;
    for (double& x : rec.throughput_mbps) {
      walk = std::clamp(walk * std::exp(noise(0.08)), 0.4, 1.6);
      x *= walk;
    }
  }

  double sum = 0.0;
  for (double x : rec.throughput_mbps) sum += x;
  rec.mean_throughput_mbps =
      rec.throughput_mbps.empty() ? 0.0 : sum / static_cast<double>(rec.throughput_mbps.size());
}

}  // namespace

NdtRecord generate_record(FlowArchetype archetype, const SyntheticConfig& cfg, Rng& rng,
                          std::uint64_t id) {
  NdtRecord rec;
  fill_record(rec, archetype, cfg, rng, id);
  return rec;
}

void generate_dataset_stream(const SyntheticConfig& cfg, Rng& rng,
                             const std::function<void(NdtRecord&&)>& fn, unsigned jobs) {
  const std::vector<double> weights = {
      cfg.frac_app_limited_streaming, cfg.frac_app_limited_constant, cfg.frac_short,
      cfg.frac_rwnd_limited,          cfg.frac_bulk_clean,           cfg.frac_bulk_contended,
      cfg.frac_policed};
  static const FlowArchetype archetypes[] = {
      FlowArchetype::kAppLimitedStreaming, FlowArchetype::kAppLimitedConstant,
      FlowArchetype::kShortFlow,           FlowArchetype::kRwndLimited,
      FlowArchetype::kBulkClean,           FlowArchetype::kBulkContended,
      FlowArchetype::kPoliced};

  const std::uint64_t base_seed = rng.engine()();
  const std::size_t n_blocks = (cfg.n_flows + kBlockFlows - 1) / kBlockFlows;
  const auto block_flows = [&](std::size_t b) {
    return std::min(kBlockFlows, cfg.n_flows - b * kBlockFlows);
  };

  // Records in flight live in flat buffers. Slot s holds a header (its
  // series left empty), a length and `cap` samples; block b takes the
  // kBlockFlows slots from (b % kBlocksInFlight) * kBlockFlows. One vector
  // per record held across the call left free chunks in the caller's heap
  // that raised passive_ingest's later peak RSS by ~1.7 MB in some heap
  // layouts; a few large buffers do not. A worker allocates one scratch
  // series per block, and the caller reuses one output record.
  const std::size_t cap =
      std::max(static_cast<std::size_t>(cfg.test_duration_sec / cfg.snapshot_interval_sec),
               static_cast<std::size_t>(kShortFlowMaxSec / cfg.snapshot_interval_sec) + 1);
  std::vector<NdtRecord> heads(kBlocksInFlight * kBlockFlows);
  std::vector<std::size_t> lengths(heads.size());
  std::vector<double> samples(heads.size() * cap);
  const auto first_slot = [](std::size_t b) { return (b % kBlocksInFlight) * kBlockFlows; };

  runner::ExperimentRunner pool{{.jobs = jobs, .on_progress = {}}};
  NdtRecord out;
  pool.run_ordered(
      n_blocks, kBlocksInFlight,
      [&](std::size_t b) {
        Rng block_rng{runner::derive_seed(base_seed, b)};
        NdtRecord rec;
        for (std::size_t k = 0, slot = first_slot(b); k < block_flows(b); ++k, ++slot) {
          const FlowArchetype a = archetypes[block_rng.weighted_index(weights)];
          fill_record(rec, a, cfg, block_rng, b * kBlockFlows + k);
          const auto& series = rec.throughput_mbps;
          if (series.size() > cap) throw std::logic_error{"synthetic series longer than its slot"};
          std::copy(series.begin(), series.end(), &samples[slot * cap]);
          lengths[slot] = series.size();
          rec.throughput_mbps.clear();  // the header carries no samples
          heads[slot] = rec;
        }
      },
      [&](std::size_t b) {
        for (std::size_t k = 0, slot = first_slot(b); k < block_flows(b); ++k, ++slot) {
          const double* from = &samples[slot * cap];
          out = heads[slot];
          out.throughput_mbps.assign(from, from + lengths[slot]);
          fn(std::move(out));
        }
      });
}

std::vector<NdtRecord> generate_dataset(const SyntheticConfig& cfg, Rng& rng, unsigned jobs) {
  std::vector<NdtRecord> out;
  out.reserve(cfg.n_flows);
  generate_dataset_stream(
      cfg, rng, [&out](NdtRecord&& rec) { out.push_back(std::move(rec)); }, jobs);
  return out;
}

}  // namespace ccc::mlab
