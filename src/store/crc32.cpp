#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CCC_CRC32_CLMUL 1
#endif

#include "store/crc32_detail.hpp"
#include "store/format.hpp"

namespace ccc::store {

namespace detail {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

// Slicing-by-16: table 0 is the classic byte-at-a-time table; table k maps a
// byte to its CRC contribution when k zero bytes follow it, so sixteen
// independent lookups fold one 16-byte block into the state.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB8'8320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32_table(std::uint32_t state, const std::uint8_t* p, std::size_t len) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t c = state;
  for (; len >= 16; p += 16, len -= 16) {
    // memcpy, not a cast: the input has no alignment guarantee. The word
    // order relies on the little-endian host format.hpp asserts.
    std::uint32_t w[4];
    std::memcpy(w, p, sizeof w);
    w[0] ^= c;
    c = t[15][w[0] & 0xFFu] ^ t[14][(w[0] >> 8) & 0xFFu] ^ t[13][(w[0] >> 16) & 0xFFu] ^
        t[12][w[0] >> 24] ^ t[11][w[1] & 0xFFu] ^ t[10][(w[1] >> 8) & 0xFFu] ^
        t[9][(w[1] >> 16) & 0xFFu] ^ t[8][w[1] >> 24] ^ t[7][w[2] & 0xFFu] ^
        t[6][(w[2] >> 8) & 0xFFu] ^ t[5][(w[2] >> 16) & 0xFFu] ^ t[4][w[2] >> 24] ^
        t[3][w[3] & 0xFFu] ^ t[2][(w[3] >> 8) & 0xFFu] ^ t[1][(w[3] >> 16) & 0xFFu] ^
        t[0][w[3] >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

#ifdef CCC_CRC32_CLMUL

namespace {

// The folding constants of Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), for the reflected
// polynomial: fold_constant(n) is x^n mod P bit-reflected and shifted left
// once, so a carry-less product by it moves a 64-bit half n bits further on.
// P is the normal-order form of 0xEDB88320.
constexpr std::uint64_t kPoly = 0x1'04C1'1DB7u;

constexpr std::uint64_t reflect(std::uint64_t v, int bits) {
  std::uint64_t r = 0;
  for (int i = 0; i < bits; ++i, v >>= 1) r = (r << 1) | (v & 1u);
  return r;
}

constexpr std::uint64_t fold_constant(int n) {
  std::uint64_t r = 1;  // x^0
  for (int i = 0; i < n; ++i) {
    r <<= 1;
    if (r >> 32) r ^= kPoly;
  }
  return reflect(r, 32) << 1;
}

// Barrett's mu: floor(x^64 / P), 33 bits, reflected. Long division: the
// first quotient bit cancels x^64, the loop the remainder's bits 63..32.
constexpr std::uint64_t barrett_mu() {
  std::uint64_t q = std::uint64_t{1} << 32;
  std::uint64_t rem = (kPoly ^ (std::uint64_t{1} << 32)) << 32;
  for (int d = 63; d >= 32; --d) {
    if ((rem >> d) & 1u) {
      rem ^= kPoly << (d - 32);
      q |= std::uint64_t{1} << (d - 32);
    }
  }
  return reflect(q, 33);
}

constexpr std::uint64_t kFold4[2] = {fold_constant(4 * 128 + 32), fold_constant(4 * 128 - 32)};
constexpr std::uint64_t kFold1[2] = {fold_constant(128 + 32), fold_constant(128 - 32)};
constexpr std::uint64_t kFold64 = fold_constant(64);
constexpr std::uint64_t kBarrett[2] = {reflect(kPoly, 33), barrett_mu()};

// The values the paper and zlib's crc32_simd publish.
static_assert(kFold4[0] == 0x1'5444'2BD4u && kFold4[1] == 0x1'C6E4'1596u);
static_assert(kFold1[0] == 0x1'7519'97D0u && kFold1[1] == 0x0'CCAA'009Eu);
static_assert(kFold64 == 0x1'63CD'6124u);
static_assert(kBarrett[0] == 0x1'DB71'0641u && kBarrett[1] == 0x1'F701'1641u);

#define CCC_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

CCC_CLMUL_TARGET inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

CCC_CLMUL_TARGET inline __m128i pair(const std::uint64_t (&k)[2]) {
  return _mm_set_epi64x(static_cast<long long>(k[1]), static_cast<long long>(k[0]));
}

// Moves lane x forward by the distance k encodes and adds `next` into it.
CCC_CLMUL_TARGET inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

}  // namespace

bool clmul_supported() noexcept {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return ok;
}

CCC_CLMUL_TARGET std::uint32_t crc32_clmul(std::uint32_t state, const std::uint8_t* p,
                                           std::size_t len) noexcept {
  // Four lanes hold 64 bytes; the register enters at the first byte.
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  len -= 64;

  const __m128i k4 = pair(kFold4);
  for (; len >= 64; p += 64, len -= 64) {
    x0 = fold(x0, k4, load(p));
    x1 = fold(x1, k4, load(p + 16));
    x2 = fold(x2, k4, load(p + 32));
    x3 = fold(x3, k4, load(p + 48));
  }

  // Fold the four lanes into one, then take the remaining 16-byte blocks.
  const __m128i k1 = pair(kFold1);
  __m128i x = fold(x0, k1, x1);
  x = fold(x, k1, x2);
  x = fold(x, k1, x3);
  for (; len >= 16; p += 16, len -= 16) x = fold(x, k1, load(p));

  // 128 bits to 64: the low half moves 64 bits on into the high half.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k1, 0x10));
  // 64 bits to 32 (plus the 32 the Barrett step consumes).
  const __m128i k64 = _mm_set_epi64x(0, static_cast<long long>(kFold64));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k64, 0x00));

  // Barrett reduction to the 32-bit register.
  const __m128i barrett = pair(kBarrett);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#undef CCC_CLMUL_TARGET

#else  // no carry-less multiply on this architecture

bool clmul_supported() noexcept { return false; }

std::uint32_t crc32_clmul(std::uint32_t state, const std::uint8_t* p, std::size_t len) noexcept {
  return crc32_table(state, p, len);  // unreachable: clmul_supported() is false
}

#endif

}  // namespace detail

void Crc32::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = state_;
  if (len >= detail::kClmulMinBytes && detail::clmul_supported()) {
    const std::size_t bulk = len & ~std::size_t{15};
    c = detail::crc32_clmul(c, p, bulk);
    p += bulk;
    len -= bulk;
  }
  state_ = detail::crc32_table(c, p, len);
}

std::uint32_t crc32(const void* data, std::size_t len) {
  Crc32 c;
  c.update(data, len);
  return c.value();
}

}  // namespace ccc::store
