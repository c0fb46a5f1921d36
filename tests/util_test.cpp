// Unit tests for util: units, rng, stats, fft, table, monotone max, block deque,
// flat map.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <utility>
#include <numbers>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/block_deque.hpp"
#include "util/fft.hpp"
#include "util/flat_map.hpp"
#include "util/monotone_max.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace ccc {
namespace {

// ---------- units ----------

TEST(Units, TimeConversionsRoundTrip) {
  EXPECT_EQ(Time::ms(5).count_ns(), 5'000'000);
  EXPECT_EQ(Time::us(7).count_ns(), 7'000);
  EXPECT_DOUBLE_EQ(Time::sec(1.5).to_sec(), 1.5);
  EXPECT_DOUBLE_EQ(Time::ms(250).to_ms(), 250.0);
}

TEST(Units, TimeArithmeticAndOrdering) {
  const Time a = Time::ms(10);
  const Time b = Time::ms(3);
  EXPECT_EQ((a + b).count_ns(), Time::ms(13).count_ns());
  EXPECT_EQ((a - b).count_ns(), Time::ms(7).count_ns());
  EXPECT_LT(b, a);
  EXPECT_EQ(a * 3, Time::ms(30));
  EXPECT_DOUBLE_EQ(a / b, 10.0 / 3.0);
  EXPECT_EQ(a / 2, Time::ms(5));
}

TEST(Units, TimeNeverIsLargest) {
  EXPECT_GT(Time::never(), Time::sec(1e9));
}

TEST(Units, RateTransmitTime) {
  // 1500 bytes at 12 Mbit/s = 1 ms.
  const Rate r = Rate::mbps(12);
  EXPECT_EQ(r.transmit_time(1500).count_ns(), 1'000'000);
}

TEST(Units, RateBytesIn) {
  EXPECT_EQ(Rate::mbps(8).bytes_in(Time::sec(1.0)), 1'000'000);
}

TEST(Units, RateBytesPer) {
  const Rate r = Rate::bytes_per(1'000'000, Time::sec(1.0));
  EXPECT_DOUBLE_EQ(r.to_mbps(), 8.0);
}

TEST(Units, BdpBytes) {
  // 48 Mbit/s * 100 ms = 600,000 bytes.
  EXPECT_EQ(bdp_bytes(Rate::mbps(48), Time::ms(100)), 600'000);
}

TEST(Units, RateArithmetic) {
  EXPECT_DOUBLE_EQ((Rate::mbps(10) + Rate::mbps(5)).to_mbps(), 15.0);
  EXPECT_DOUBLE_EQ((Rate::mbps(10) * 0.5).to_mbps(), 5.0);
  EXPECT_DOUBLE_EQ(Rate::mbps(10) / Rate::mbps(5), 2.0);
}

// ---------- rng ----------

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(3.0, 5.0);
    EXPECT_GE(x, 3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng{7};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    saw_lo |= v == 1;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng rng{11};
  RunningStats st;
  for (int i = 0; i < 20000; ++i) st.add(rng.exponential(0.5));
  EXPECT_NEAR(st.mean(), 0.5, 0.02);
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng rng{13};
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.bounded_pareto(1.2, 10.0, 1000.0);
    EXPECT_GE(x, 10.0 * 0.999);
    EXPECT_LE(x, 1000.0 * 1.001);
  }
}

TEST(Rng, BoundedParetoIsHeavyTailed) {
  Rng rng{13};
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.bounded_pareto(1.2, 1.0, 1e6));
  // Median far below mean for a heavy tail.
  RunningStats st;
  for (double x : xs) st.add(x);
  EXPECT_LT(median(xs), st.mean() / 3.0);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng{17};
  const std::vector<double> w{0.0, 9.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(Rng, WeightedIndexThrowsOnAllZero) {
  Rng rng{17};
  EXPECT_THROW((void)rng.weighted_index({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, ForkIsIndependent) {
  Rng a{99};
  Rng child = a.fork();
  // Child draws do not change the parent's subsequent sequence relative to a
  // clone that forked identically.
  Rng b{99};
  Rng child2 = b.fork();
  (void)child2;
  for (int i = 0; i < 10; ++i) (void)child.uniform();
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

// ---------- stats ----------

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(Stats, CdfFractionAndInverse) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  const Cdf cdf{xs};
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(50.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(1000.0), 1.0);
  EXPECT_NEAR(cdf.value_at_quantile(0.25), 25.75, 1e-9);
}

TEST(Stats, CdfCurveIsMonotone) {
  std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  const auto curve = Cdf{xs}.curve(11);
  ASSERT_EQ(curve.size(), 11u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
}

TEST(Stats, JainIndexExtremes) {
  EXPECT_DOUBLE_EQ(jain_fairness_index(std::vector<double>{1, 1, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index(std::vector<double>{4, 0, 0, 0}), 0.25);
}

TEST(Stats, JainIndexScaleInvariant) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{10, 20, 30};
  EXPECT_DOUBLE_EQ(jain_fairness_index(a), jain_fairness_index(b));
}

TEST(Stats, HarmMetric) {
  EXPECT_DOUBLE_EQ(harm(10.0, 5.0), 0.5);
  EXPECT_DOUBLE_EQ(harm(10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(harm(10.0, 12.0), 0.0);  // improvement is not harm
}

// ---------- fft ----------

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(500), 512u);
}

TEST(Fft, ForwardInverseRoundTrip) {
  std::vector<std::complex<double>> data(16);
  Rng rng{3};
  for (auto& c : data) c = {rng.uniform(), 0.0};
  auto copy = data;
  fft_inplace(copy);
  fft_inplace(copy, /*inverse=*/true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(copy[i].real() / 16.0, data[i].real(), 1e-9);
  }
}

TEST(Fft, DetectsPureTone) {
  // 8 Hz tone sampled at 64 Hz for 4 seconds.
  const double fs = 64.0;
  std::vector<double> sig;
  for (int i = 0; i < 256; ++i) {
    sig.push_back(std::sin(2.0 * std::numbers::pi * 8.0 * static_cast<double>(i) / fs));
  }
  const auto spec = magnitude_spectrum(sig, fs);
  const auto peak_bin = spec.bin_for(8.0);
  for (std::size_t i = 1; i < spec.magnitude.size(); ++i) {
    if (i >= peak_bin - 1 && i <= peak_bin + 1) continue;
    EXPECT_LT(spec.magnitude[i], spec.magnitude[peak_bin] * 0.2)
        << "leak at bin " << i;
  }
}

TEST(Fft, SpectrumRemovesDc) {
  std::vector<double> sig(128, 42.0);  // pure DC
  const auto spec = magnitude_spectrum(sig, 10.0);
  for (double m : spec.magnitude) EXPECT_NEAR(m, 0.0, 1e-9);
}

TEST(Fft, BinForClampsToNyquist) {
  std::vector<double> sig(64, 0.0);
  sig[3] = 1.0;
  const auto spec = magnitude_spectrum(sig, 10.0);
  EXPECT_EQ(spec.bin_for(1e9), spec.magnitude.size() - 1);
}

// ---------- table ----------

TEST(Table, AlignedOutputContainsCells) {
  TextTable t{{"name", "value"}};
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  EXPECT_NE(s.find("value"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t{{"a", "b"}};
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvQuotesSpecials) {
  TextTable t{{"a"}};
  t.add_row({"x,y"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

// ---------- monotone max ----------

TEST(MonotoneMax, MatchesNaiveScanUnderRandomPushesAndEvictions) {
  // 10k random operations against a deque that keeps every sample and
  // scans it: keys advance by 0-2 per push (runs of equal keys), values
  // come from a small range (many ties), and the window of 0-4 keys is
  // evicted at random points, as BBR evicts after some ACKs and not others.
  Rng rng{7};
  for (const std::uint64_t window : {0u, 1u, 4u}) {
    util::MonotoneMax<std::uint64_t, int> fast;
    std::deque<std::pair<std::uint64_t, int>> all;
    std::uint64_t key = 0;
    for (int op = 0; op < 10'000; ++op) {
      if (rng.chance(0.7)) {
        key += static_cast<std::uint64_t>(rng.uniform_int(0, 2));
        const int value = static_cast<int>(rng.uniform_int(0, 9));
        fast.push(key, value);
        all.emplace_back(key, value);
      } else {
        const auto expired = [&](std::uint64_t k) { return k + window < key; };
        fast.evict_front_while(expired);
        while (!all.empty() && expired(all.front().first)) all.pop_front();
      }
      int naive = -1;
      for (const auto& [k, v] : all) naive = std::max(naive, v);
      ASSERT_EQ(fast.best_or(-1), naive) << "window " << window << ", op " << op;
      ASSERT_LE(fast.size(), all.size());
      ASSERT_EQ(fast.size() == 0, all.empty());
    }
  }
}

TEST(MonotoneMax, MinAndMaxMatchNaiveScanUnderAWindowThatShrinksAndGrows) {
  // Copa's shape: every sample is pushed with the current time as its key,
  // then the front is evicted against a width that changes between calls
  // (max(srtt/2, 1 ms) follows the smoothed RTT). Each call's predicate is
  // monotone in the key, so both extrema must match a deque that keeps
  // every sample the same evictions leave and scans it.
  Rng rng{11};
  util::MonotoneMin<std::int64_t, int> lo;
  util::MonotoneMax<std::int64_t, int> hi;
  std::deque<std::pair<std::int64_t, int>> all;
  std::int64_t now = 0;
  std::int64_t width = 10;
  for (int op = 0; op < 20'000; ++op) {
    now += rng.uniform_int(0, 3);
    if (rng.chance(0.8)) {
      const int value = static_cast<int>(rng.uniform_int(0, 9));
      lo.push(now, value);
      hi.push(now, value);
      all.emplace_back(now, value);
    }
    // A random walk between 1 and 40: long shrinking and growing stretches.
    width = std::clamp<std::int64_t>(width + rng.uniform_int(-3, 3), 1, 40);
    const auto expired = [&](std::int64_t k) { return now - k > width; };
    lo.evict_front_while(expired);
    hi.evict_front_while(expired);
    while (!all.empty() && expired(all.front().first)) all.pop_front();
    int naive_min = 100;
    int naive_max = -1;
    for (const auto& [k, v] : all) {
      naive_min = std::min(naive_min, v);
      naive_max = std::max(naive_max, v);
    }
    ASSERT_EQ(lo.best_or(100), naive_min) << "op " << op;
    ASSERT_EQ(hi.best_or(-1), naive_max) << "op " << op;
    ASSERT_LE(lo.size(), all.size());
    ASSERT_LE(hi.size(), all.size());
  }
}

TEST(MonotoneMin, KeepsOnlyTheIncreasingSuffix) {
  util::MonotoneMin<int, int> m;
  EXPECT_EQ(m.best_or(99), 99);
  for (const int v : {5, 7, 6, 9}) m.push(0, v);
  EXPECT_EQ(m.size(), 3u);  // 7 is dominated by the later 6
  EXPECT_EQ(m.best_or(99), 5);
  m.push(1, 5);  // a tie with the front replaces it
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.best_or(99), 5);
  m.evict_front_while([](int k) { return k < 2; });
  EXPECT_EQ(m.best_or(99), 99);
}

TEST(MonotoneMax, KeepsOnlyTheDecreasingSuffix) {
  util::MonotoneMax<int, int> m;
  EXPECT_EQ(m.best_or(0), 0);
  for (const int v : {5, 3, 4, 1}) m.push(0, v);
  EXPECT_EQ(m.size(), 3u);  // 3 is dominated by the later 4
  EXPECT_EQ(m.best_or(0), 5);
  m.push(1, 5);  // a tie with the front replaces it: the later sample lives longer
  EXPECT_EQ(m.size(), 1u);
  m.evict_front_while([](int k) { return k < 1; });
  EXPECT_EQ(m.best_or(0), 5);
  m.evict_front_while([](int k) { return k < 2; });
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.best_or(0), 0);
}

// ---------- block deque ----------

// Elements of 128 bytes: four to a 512-byte block, so the queues below cross
// block boundaries every few operations.
struct Wide {
  Wide(std::int64_t value) : v{value} {}  // NOLINT: implicit, to push plain numbers
  std::int64_t v;
  char pad[120]{};
  friend bool operator==(const Wide& a, const Wide& b) { return a.v == b.v; }
  friend std::ostream& operator<<(std::ostream& os, const Wide& w) { return os << w.v; }
};
static_assert(util::BlockDeque<Wide>::kBlockElems == 4);

// A non-trivial element of 128 bytes: each string owns heap memory, so a
// missed destructor or a double one shows under ASan.
struct WideString {
  std::string s;
  char pad[128 - sizeof(std::string)]{};
  friend bool operator==(const WideString& a, const WideString& b) { return a.s == b.s; }
  friend std::ostream& operator<<(std::ostream& os, const WideString& w) { return os << w.s; }
};
static_assert(util::BlockDeque<WideString>::kBlockElems == 4);

// Drives `q` and a std::deque through the same random operations and checks
// every observable after each one: size, both ends, a random index, and a
// walk with iterator arithmetic. `make` turns a counter into an element.
template <class Q, class Make>
void check_block_deque_against_std(Q& q, Make make, std::uint64_t seed, int ops) {
  using T = typename Q::value_type;
  std::deque<T> ref;
  Rng rng{seed};
  int next = 0;
  for (int op = 0; op < ops; ++op) {
    // Phases bias toward growth or drain, so the queue repeatedly crosses
    // block boundaries, drains to empty and refills.
    const bool growing = (op / 500) % 2 == 0;
    const auto r = rng.uniform_int(0, 9);
    if (ref.empty() || r < (growing ? 6 : 3)) {
      const T v = make(next++);
      q.push_back(v);
      ref.push_back(v);
    } else if (r < 8) {
      q.pop_front();
      ref.pop_front();
    } else {
      q.pop_back();
      ref.pop_back();
    }
    ASSERT_EQ(q.size(), ref.size()) << "op " << op;
    ASSERT_EQ(q.empty(), ref.empty());
    if (ref.empty()) continue;
    ASSERT_EQ(q.front(), ref.front());
    ASSERT_EQ(q.back(), ref.back());
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ref.size()) - 1));
    ASSERT_EQ(q[i], ref[i]);
    const auto n = static_cast<std::ptrdiff_t>(ref.size());
    ASSERT_EQ(q.end() - q.begin(), n);
    ASSERT_EQ(*(q.begin() + static_cast<std::ptrdiff_t>(i)), ref[i]);
    ASSERT_EQ(*(q.end() - 1), ref.back());
    ASSERT_EQ(q.begin()[static_cast<std::ptrdiff_t>(i)], ref[i]);
    if (op % 50 == 0) {
      ASSERT_TRUE(std::equal(q.begin(), q.end(), ref.begin(), ref.end()));
    }
  }
}

TEST(BlockDeque, MatchesStdDequeUnderRandomOps) {
  util::BlockDeque<Wide> small;  // 4 per block
  check_block_deque_against_std(small, [](int k) { return Wide{std::int64_t{k} * 7}; }, 1, 20000);
  util::BlockDeque<std::int64_t> dflt;  // 64 per 512-byte block
  check_block_deque_against_std(dflt, [](int k) { return std::int64_t{k}; }, 2, 20000);
  util::BlockDeque<WideString> strings;  // 4 per block
  check_block_deque_against_std(
      strings,
      [](int k) {
        return WideString{std::string(40, static_cast<char>('a' + k % 26)) + std::to_string(k)};
      },
      3, 6000);
}

TEST(BlockDeque, BlockSizesArePowersOfTwoWithinTheBudget) {
  struct Big {
    char bytes[144];
  };
  static_assert(util::BlockDeque<Big>::kBlockElems == 2);  // 288 of 512 bytes
  static_assert(util::BlockDeque<std::uint32_t>::kBlockElems == 128);
  struct Huge {
    char bytes[1000];
  };
  static_assert(util::BlockDeque<Huge>::kBlockElems == 1);  // never zero
}

TEST(BlockDeque, PartitionPointOverItsIterators) {
  util::BlockDeque<Wide> q;
  std::deque<std::int64_t> ref;
  for (std::int64_t v = 0; v < 300; ++v) {
    q.push_back(3 * v);
    ref.push_back(3 * v);
  }
  for (int i = 0; i < 37; ++i) {  // the front now sits mid-block
    q.pop_front();
    ref.pop_front();
  }
  for (std::int64_t key = 100; key < 910; key += 5) {
    const auto below = [key](const Wide& w) { return w.v < key; };
    const auto it = std::partition_point(q.begin(), q.end(), below);
    const auto ref_it = std::partition_point(ref.begin(), ref.end(),
                                             [key](std::int64_t v) { return v < key; });
    EXPECT_EQ(it - q.begin(), ref_it - ref.begin());
    const auto& cq = q;  // const iterators too
    EXPECT_EQ(std::partition_point(cq.begin(), cq.end(), below) - cq.begin(), it - q.begin());
  }
  auto it = q.begin() + 10;
  util::BlockDeque<Wide>::const_iterator cit = it;
  EXPECT_EQ(*cit, *it);
  EXPECT_TRUE(q.begin() < it && it <= q.end());
  EXPECT_EQ(*--it, ref[9]);
  EXPECT_EQ(*it++, ref[9]);
  EXPECT_EQ(*it, ref[10]);
}

TEST(BlockDeque, DrainsToEmptyAndRefillsAcrossBlockBoundaries) {
  util::BlockDeque<Wide> q;  // 4 per block
  for (const int n : {1, 3, 4, 5, 8, 9, 17, 4, 1}) {
    for (int k = 0; k < n; ++k) q.push_back(k);
    ASSERT_EQ(q.size(), static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) ASSERT_EQ(q[static_cast<std::size_t>(k)], k);
    // Drain alternately from either end.
    for (int k = 0; k < n; ++k) {
      if (n % 2 == 0) {
        ASSERT_EQ(q.front(), k);
        q.pop_front();
      } else {
        ASSERT_EQ(q.back(), n - 1 - k);
        q.pop_back();
      }
    }
    ASSERT_TRUE(q.empty());
    ASSERT_EQ(q.begin(), q.end());
  }
  // A queue that holds steady depth while its front crosses many blocks.
  for (int k = 0; k < 6; ++k) q.push_back(k);
  for (int k = 6; k < 1000; ++k) {
    q.push_back(k);
    ASSERT_EQ(q.front(), k - 6);
    q.pop_front();
  }
  EXPECT_EQ(q.size(), 6u);
  EXPECT_EQ(q.front(), 994);
  EXPECT_EQ(q.back(), 999);
}

TEST(BlockDeque, ElementsNeverMove) {
  util::BlockDeque<Wide> q;
  for (int k = 0; k < 10; ++k) q.push_back(k);
  std::vector<const Wide*> addr;
  for (std::size_t i = 0; i < q.size(); ++i) addr.push_back(&q[i]);
  // Growth past many blocks (and block-pointer vector reallocations) and
  // pops at the front leave every remaining element where it was.
  for (int k = 10; k < 5000; ++k) q.push_back(k);
  for (int k = 0; k < 4; ++k) q.pop_front();
  for (std::size_t i = 4; i < addr.size(); ++i) {
    EXPECT_EQ(&q[i - 4], addr[i]);
    EXPECT_EQ(addr[i]->v, static_cast<std::int64_t>(i));
  }
  // Front retirement and compaction of the block-pointer vector while the
  // queue slides forward.
  const Wide* last = &q.back();
  for (int k = 0; k < 4900; ++k) {
    q.push_back(5000 + k);
    q.pop_front();
  }
  EXPECT_EQ(last->v, 4999);
  EXPECT_EQ(&q[q.size() - 4901], last);
  // A move hands over the blocks themselves.
  const Wide* front = &q.front();
  util::BlockDeque<Wide> moved{std::move(q)};
  EXPECT_EQ(&moved.front(), front);
  EXPECT_TRUE(q.empty());  // a moved-from queue is empty
  q.push_back(1);          // and usable
  EXPECT_EQ(q.front().v, 1);
  q = std::move(moved);
  EXPECT_EQ(&q.front(), front);
}

// ---------- flat map ----------

TEST(FlatMap, MatchesHashMapModelUnderChurn) {
  // Random insert, overwrite, erase and lookup against an
  // std::unordered_map model. Keys come from dense ranges like the
  // scenarios' flow ids (flows from 1, short flows from 100000, CBR from
  // 900000), from the top of the 64-bit range and from scattered keys, so
  // probe runs form, wrap around the table and are cut by erasures; a few
  // hundred keys are live at a time.
  util::FlatMap<std::uint32_t> map;
  std::unordered_map<std::uint64_t, std::uint32_t> model;
  Rng rng{42};
  std::vector<std::uint64_t> scattered(64);
  for (std::size_t i = 0; i < scattered.size(); ++i) scattered[i] = util::splitmix64(i);
  const auto draw_key = [&]() -> std::uint64_t {
    switch (rng.uniform_int(0, 4)) {
      case 0: return static_cast<std::uint64_t>(rng.uniform_int(0, 60));
      case 1: return static_cast<std::uint64_t>(100000 + rng.uniform_int(0, 400));
      case 2: return static_cast<std::uint64_t>(900000 + rng.uniform_int(0, 40));
      case 3: return ~0ull - static_cast<std::uint64_t>(rng.uniform_int(0, 20));
      default: return scattered[static_cast<std::size_t>(rng.uniform_int(0, 63))];
    }
  };
  for (int step = 0; step < 200'000; ++step) {
    const std::uint64_t key = draw_key();
    const auto value = static_cast<std::uint32_t>(rng.uniform_int(0, 1'000'000));
    const auto op = rng.uniform_int(0, 9);
    const auto it = model.find(key);
    if (op < 2) {  // insert unless present
      const auto [stored, inserted] = map.try_emplace(key, value);
      ASSERT_EQ(inserted, it == model.end()) << "step " << step;
      ASSERT_EQ(*stored, inserted ? value : it->second) << "step " << step;
      model.emplace(key, value);
    } else if (op < 3) {  // insert, or overwrite a present key
      map.insert_or_assign(key, value);
      model[key] = value;
    } else if (op < 6) {
      ASSERT_EQ(map.erase(key), model.erase(key) == 1) << "step " << step;
    }
    const auto now = model.find(key);
    const std::uint32_t* found = map.find(key);
    ASSERT_EQ(found == nullptr, now == model.end()) << "step " << step << ", key " << key;
    if (found != nullptr) {
      ASSERT_EQ(*found, now->second) << "step " << step;
    }
    ASSERT_EQ(map.size(), model.size()) << "step " << step;
    if (step % 5'000 == 0) {
      for (const auto& [k, v] : model) {
        ASSERT_TRUE(map.contains(k));
        ASSERT_EQ(*map.find(k), v);
      }
    }
  }
  EXPECT_GT(model.size(), 100u);
}

}  // namespace
}  // namespace ccc
