// CRC32C (Castagnoli) — the payload checksum of the fault-tolerance
// layer.
//
// Shard files (data/shard.h, format v2) carry one CRC32C per chunk so
// bit rot and torn writes are detected on every read, and checkpoint
// files (protocol/snapshot.h) frame every record with one so a crash
// mid-append degrades to a shorter-but-valid file instead of a corrupt
// one. Wire envelopes (protocol/wire.h) carry one too.
//
// Crc32cExtend has two compile-time bodies with identical values:
//   * the hardware body, the SSE4.2 `crc32` instruction with three
//     interleaved streams over long inputs (~7.5 GB/s over a 210 MB
//     buffer on a 4-vCPU Xeon VM; one stream ran ~4 GB/s), compiled
//     whenever the build targets SSE4.2 (the default -mavx2 build implies
//     it) and HDLDP_DISABLE_SIMD is not defined;
//   * the portable body, table-driven slicing-by-8 (~1.1 GB/s on the
//     same VM), compiled otherwise — the release-nosimd preset runs the
//     same tests against it (tests/test_crc32c.cc).
// Every shard pull verifies its chunk's CRC before the rows are used, so
// this checksum sets the pull's speed next to the mmap read.

#ifndef HDLDP_COMMON_CRC32C_H_
#define HDLDP_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

// Selects the body crc32c.cc compiles.
#if defined(__SSE4_2__) && !defined(HDLDP_DISABLE_SIMD)
#define HDLDP_CRC32C_SSE42 1
#else
#define HDLDP_CRC32C_SSE42 0
#endif

namespace hdldp {

/// True when Crc32cExtend is the SSE4.2 instruction body. Tests assert it
/// against the build macros so the fast path cannot silently drop out.
inline constexpr bool kCrc32cHardware = HDLDP_CRC32C_SSE42;

/// \brief Extends a running CRC32C with `len` bytes. Pass the previous
/// call's return value to checksum a stream incrementally; the result is
/// identical to one Crc32c call over the concatenated bytes.
std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t len);

/// \brief CRC32C of one contiguous buffer.
inline std::uint32_t Crc32c(const void* data, std::size_t len) {
  return Crc32cExtend(0, data, len);
}

}  // namespace hdldp

#endif  // HDLDP_COMMON_CRC32C_H_
