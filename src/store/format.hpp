// ccfs v1 — the columnar flow-record store's on-disk format.
//
// The CSV path loads every record (and its full throughput series) into
// std::vector<NdtRecord> before analysis touches anything, which tops out
// around the paper's 10^4 flows. ccfs lays the same data out as columns so a
// reader can mmap the file and hand out zero-copy spans: the pipeline's
// filter stages read only the fixed-width aggregate columns, and the
// change-point stage reads only the series of flows that survive filtering
// (a small minority — §3.1 filters ~60% of flows before the search).
//
// Layout (all integers little-endian, every section 8-byte aligned):
//
//   offset 0    Header        64 bytes: magic "ccfs.v1\0", version, counts
//                             and directory offset (counts patched at
//                             finish; duplicated in the footer)
//   offset 64   ts_pool       f64[sample_count]  all series, concatenated —
//                             streamed during ingest so the writer never
//                             buffers more than one record's series
//   ...         id            u64[N]
//   ...         access        u8[N]    (mlab::AccessType)
//   ...         truth         u8[N]    (mlab::FlowArchetype)
//   ...         duration      f64[N]
//   ...         app_limited   f64[N]
//   ...         rwnd_limited  f64[N]
//   ...         mean_tput     f64[N]
//   ...         min_rtt       f64[N]
//   ...         snap_interval f64[N]
//   ...         ts_offsets    u64[N+1] sample-index prefix: flow i's series
//                             is ts_pool[ts_offsets[i], ts_offsets[i+1])
//   ...         Directory     section table: {id, offset, bytes} per section
//   end-32      Footer        directory offset + counts (authoritative),
//                             CRC-32 of bytes [64, directory end), magic
//
// The header is written first with zeroed counts and patched after the last
// section lands, so the CRC covers everything *after* the header; the
// footer's duplicate counts are the verified ones. A torn write leaves
// either a bad footer magic or a CRC mismatch — both are detected at open.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace ccc::store {

static_assert(std::endian::native == std::endian::little,
              "ccfs v1 is defined little-endian; big-endian hosts need a swap layer");

inline constexpr char kHeaderMagic[8] = {'c', 'c', 'f', 's', '.', 'v', '1', '\0'};
inline constexpr std::uint32_t kFooterMagic = 0x4546'4343u;  // "CCFE", little-endian
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kSectionAlign = 8;

/// Section ids, in file order. Fixed by the format: readers look sections up
/// by id in the directory, so future versions may append new ids but never
/// renumber these.
enum class SectionId : std::uint32_t {
  kTsPool = 0,
  kId = 1,
  kAccess = 2,
  kTruth = 3,
  kDuration = 4,
  kAppLimited = 5,
  kRwndLimited = 6,
  kMeanTput = 7,
  kMinRtt = 8,
  kSnapInterval = 9,
  kTsOffsets = 10,
};
inline constexpr std::size_t kSectionCount = 11;

struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t flags;             // reserved, 0 in v1
  std::uint64_t flow_count;        // patched at finish; footer is authoritative
  std::uint64_t sample_count;      // "
  std::uint64_t directory_offset;  // "
  std::uint8_t reserved[24];
};
static_assert(sizeof(Header) == 64);

struct DirectoryEntry {
  std::uint32_t id;
  std::uint32_t reserved;
  std::uint64_t offset;  // absolute file offset, 8-byte aligned
  std::uint64_t bytes;   // payload size, excluding alignment padding
};
static_assert(sizeof(DirectoryEntry) == 24);

struct Footer {
  std::uint64_t directory_offset;
  std::uint64_t flow_count;
  std::uint64_t sample_count;
  std::uint32_t crc32;  // over bytes [sizeof(Header), directory end)
  std::uint32_t magic;  // kFooterMagic
};
static_assert(sizeof(Footer) == 32);

/// Incremental CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320, initial
/// and final XOR 0xFFFFFFFF) — the CRC zlib computes, implemented here so the
/// store has no deps. update() hands every run of 64 bytes or more, rounded
/// down to a multiple of 16, to a carry-less-multiply kernel (PCLMULQDQ
/// folding of four 128-bit lanes, then a Barrett reduction) when the CPU has
/// PCLMULQDQ and SSE4.1, checked once per process. Slicing-by-16 (16 table
/// lookups per 16 bytes, unaligned input read via memcpy, then a byte at a
/// time) takes the tail, and everything on other CPUs. Both kernels carry
/// the same register, so update() yields the classic byte-at-a-time value
/// for every input and every split of it across calls: existing .ccfs files
/// and .ccj journals still verify. The writer, both reader paths and the
/// sweep journal all share it. The kernels are in store/crc32_detail.hpp.
class Crc32 {
 public:
  void update(const void* data, std::size_t len);
  [[nodiscard]] std::uint32_t value() const { return ~state_; }

 private:
  std::uint32_t state_{0xFFFF'FFFFu};
};

[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len);

}  // namespace ccc::store
