// CRC32C: known answers and agreement with a bit-at-a-time reference.
//
// Crc32cExtend has two compile-time bodies (common/crc32c.h): the SSE4.2
// instruction loop and portable slicing-by-8. The default build runs
// these tests against the first, the release-nosimd preset against the
// second, so both are pinned to the same values.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/crc32c.h"

namespace hdldp {
namespace {

// The definition of CRC32C, one bit at a time: reflected Castagnoli
// polynomial, initial and final inversion.
std::uint32_t ReferenceCrc32cExtend(std::uint32_t crc,
                                    const unsigned char* data,
                                    std::size_t len) {
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

TEST(Crc32cTest, HardwareBodyCompiledWheneverTheBuildTargetsSse42) {
#if defined(__SSE4_2__) && !defined(HDLDP_DISABLE_SIMD)
  static_assert(kCrc32cHardware);
#else
  static_assert(!kCrc32cHardware);
#endif
#if defined(__AVX2__) && !defined(HDLDP_DISABLE_SIMD)
  // The default x86-64 build passes -mavx2, which implies SSE4.2.
  static_assert(kCrc32cHardware);
#endif
  SUCCEED();
}

TEST(Crc32cTest, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32c(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);

  // RFC 3720 (iSCSI) appendix B.4.
  std::vector<unsigned char> bytes(32, 0x00);
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), 0x8A9136AAu);
  bytes.assign(32, 0xFF);
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), 0x62A8AB43u);
  for (std::size_t i = 0; i < 32; ++i) {
    bytes[i] = static_cast<unsigned char>(i);
  }
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), 0x46DD794Eu);
  for (std::size_t i = 0; i < 32; ++i) {
    bytes[i] = static_cast<unsigned char>(31 - i);
  }
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), 0x113FDB5Cu);
}

TEST(Crc32cTest, MatchesBitwiseReferenceOverLengthsOffsetsAndSplits) {
  constexpr std::size_t kMaxLen = 70000;
  constexpr std::size_t kMaxOffset = 7;
  std::mt19937_64 gen(0xC12C32Cu);
  std::vector<unsigned char> buffer(kMaxLen + kMaxOffset);
  for (auto& b : buffer) b = static_cast<unsigned char>(gen());

  const auto check = [&](std::size_t offset, std::size_t len) {
    const unsigned char* p = buffer.data() + offset;
    const std::uint32_t expected = ReferenceCrc32cExtend(0, p, len);
    ASSERT_EQ(Crc32c(p, len), expected)
        << "offset " << offset << " length " << len;
    // Chained calls over random split points give the one-shot value.
    std::uint32_t chained = 0;
    std::size_t at = 0;
    while (at < len) {
      const std::size_t step =
          std::uniform_int_distribution<std::size_t>(0, len - at)(gen);
      chained = Crc32cExtend(chained, p + at, step);
      at += step;
    }
    ASSERT_EQ(chained, expected) << "offset " << offset << " length " << len;
  };
  // Every short length at every alignment covers the head and tail byte
  // loops; random long lengths cover the word loop.
  for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) check(offset, len);
  }
  for (int trial = 0; trial < 96; ++trial) {
    check(std::uniform_int_distribution<std::size_t>(0, kMaxOffset)(gen),
          std::uniform_int_distribution<std::size_t>(0, kMaxLen)(gen));
  }
  check(kMaxOffset, kMaxLen);
}

}  // namespace
}  // namespace hdldp
