#pragma once
// The two kernels behind store::Crc32::update, exposed so the tests can
// check each one against an oracle whichever of them this CPU would pick.
// Not part of the store's API: callers use Crc32 or crc32().
//
// Both kernels take and return the raw CRC register (the state Crc32 keeps,
// before the final inversion), so they chain with each other and with
// themselves across calls.

#include <cstddef>
#include <cstdint>

namespace ccc::store::detail {

/// Shortest run update() hands the carry-less kernel: it loads four 16-byte
/// lanes before its first fold.
inline constexpr std::size_t kClmulMinBytes = 64;

/// Slicing-by-16 table loop: any length, any alignment, any CPU.
[[nodiscard]] std::uint32_t crc32_table(std::uint32_t state, const std::uint8_t* p,
                                        std::size_t len) noexcept;

/// True when this CPU runs crc32_clmul (PCLMULQDQ and SSE4.1). Decided once
/// per process, on first call; thread-safe.
[[nodiscard]] bool clmul_supported() noexcept;

/// PCLMULQDQ folding of four 128-bit lanes, then a Barrett reduction.
/// Requires clmul_supported(), len >= kClmulMinBytes and len % 16 == 0.
/// Any alignment.
[[nodiscard]] std::uint32_t crc32_clmul(std::uint32_t state, const std::uint8_t* p,
                                        std::size_t len) noexcept;

}  // namespace ccc::store::detail
