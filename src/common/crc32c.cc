#include "common/crc32c.h"

#include <cstring>

#if HDLDP_CRC32C_SSE42
#include <nmmintrin.h>
#endif

namespace hdldp {

#if HDLDP_CRC32C_SSE42

namespace {

// The SSE4.2 `crc32` instruction computes exactly the reflected
// Castagnoli CRC step, so this body and the slicing-by-8 twin below
// return the same values for every input.
//
// One instruction stream is latency-bound (3 cycles per 8 bytes), so
// long inputs run three independent streams over adjacent blocks of
// `kBlock` bytes and splice them, as Intel's crc_pcl does. The register
// update is linear over GF(2): the state after blocks A|B equals
// Shift(state after A, |B|) ^ (B's state started from 0), where Shift
// advances a state through |B| zero bytes. Shift by a fixed length is
// linear in the state, so it is four 256-entry tables.
class ZeroShift {
 public:
  explicit ZeroShift(std::size_t bytes) {
    std::uint32_t basis[32];
    for (int bit = 0; bit < 32; ++bit) {
      std::uint64_t state = std::uint32_t{1} << bit;
      for (std::size_t i = 0; i < bytes / 8; ++i) {
        state = _mm_crc32_u64(state, 0);
      }
      basis[bit] = static_cast<std::uint32_t>(state);
    }
    for (int k = 0; k < 4; ++k) {
      for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t shifted = 0;
        for (int bit = 0; bit < 8; ++bit) {
          if ((n >> bit) & 1u) shifted ^= basis[8 * k + bit];
        }
        table_[k][n] = shifted;
      }
    }
  }

  std::uint64_t operator()(std::uint64_t state) const {
    return table_[0][state & 0xFFu] ^ table_[1][(state >> 8) & 0xFFu] ^
           table_[2][(state >> 16) & 0xFFu] ^ table_[3][(state >> 24) & 0xFFu];
  }

 private:
  std::uint32_t table_[4][256];
};

std::uint64_t Load64(const unsigned char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

// Folds every whole run of three kBlock-byte blocks into `state`.
template <std::size_t kBlock>
void ThreeStreams(std::uint64_t* state, const unsigned char** p,
                  std::size_t* len) {
  static const ZeroShift shift(kBlock);
  while (*len >= 3 * kBlock) {
    const unsigned char* q = *p;
    std::uint64_t s0 = *state;
    std::uint64_t s1 = 0;
    std::uint64_t s2 = 0;
    for (std::size_t i = 0; i < kBlock; i += 8) {
      s0 = _mm_crc32_u64(s0, Load64(q + i));
      s1 = _mm_crc32_u64(s1, Load64(q + kBlock + i));
      s2 = _mm_crc32_u64(s2, Load64(q + 2 * kBlock + i));
    }
    *state = shift(shift(s0) ^ s1) ^ s2;
    *p += 3 * kBlock;
    *len -= 3 * kBlock;
  }
}

}  // namespace

std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t state = ~crc;
  // Three streams over long then short blocks, then one 64-bit step per
  // remaining word and one byte step per remaining byte. x86 loads need
  // no alignment.
  ThreeStreams<8192>(&state, &p, &len);
  ThreeStreams<256>(&state, &p, &len);
  while (len >= 8) {
    state = _mm_crc32_u64(state, Load64(p));
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    state = _mm_crc32_u8(static_cast<std::uint32_t>(state), *p++);
    --len;
  }
  return ~static_cast<std::uint32_t>(state);
}

#else

namespace {

// Reflected Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

// Slicing-by-8 lookup tables: table[0] is the classic byte-at-a-time
// table, table[k] advances a byte through k additional zero bytes.
struct Crc32cTables {
  std::uint32_t t[8][256];

  Crc32cTables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (int k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xFFu] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

}  // namespace

std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t len) {
  const auto& t = Tables().t;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  // Byte-at-a-time until 8-byte alignment, then slicing-by-8.
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
    --len;
  }
  while (len >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    // Little-endian fold: the low 32 bits absorb the running CRC. On a
    // big-endian host this byte order would differ; hdldp's on-disk
    // formats are little-endian-only already (data/shard.h).
    word ^= crc;
    crc = t[7][word & 0xFFu] ^ t[6][(word >> 8) & 0xFFu] ^
          t[5][(word >> 16) & 0xFFu] ^ t[4][(word >> 24) & 0xFFu] ^
          t[3][(word >> 32) & 0xFFu] ^ t[2][(word >> 40) & 0xFFu] ^
          t[1][(word >> 48) & 0xFFu] ^ t[0][(word >> 56) & 0xFFu];
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    crc = t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
    --len;
  }
  return ~crc;
}

#endif

}  // namespace hdldp
