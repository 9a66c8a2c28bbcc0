// 4-wide lane-parallel random number generation (stream contract v2).
//
// RngLanes runs four *independent* xoshiro256++ streams side by side —
// lane l of RngLanes(seed) is exactly the stream of
// Rng(LaneSeed(seed, l)) — advancing all four states per call with AVX2
// when the build enables it and with a portable scalar loop otherwise.
// Both paths perform the same exactly-rounded integer/IEEE-754 operations,
// so lane output is bit-identical across SIMD and scalar builds
// (tests/test_rng_lanes.cc asserts NextLanes == NextLanesScalar).
//
// Seed schemes. The repository has two reproducibility contracts:
//
//   kV1Scalar  one scalar xoshiro256++ stream per run (or per 4096-user
//              chunk in the mean pipeline), drawing Rng::UniformDouble's
//              53-bit uniforms through libm transforms. Runs recorded
//              before the lane path keep their exact outputs under this
//              scheme (the frequency pipeline unconditionally; the mean
//              pipeline for populations up to
//              engine::kMaxReductionGroups x 4096 users — about
//              2.1M — beyond which the two-level reduction tree, not the
//              RNG streams, re-associates the compensated merge and may
//              move low-order bits).
//   kV2Lanes   four lane streams per 4096-user chunk, seeded
//              LaneSeed(ChunkSeed(seed, chunk), lane); uniforms carry 52
//              random bits (the widest exact uint64->double move that
//              vectorizes) and log transforms use lanes::Log4. Outputs
//              are a pure function of (data, seed): independent of the
//              thread count AND of whether the binary was built with
//              SIMD. On the sampled (m < d) path each user's expanded
//              entries form their own lane span (per-user padding of the
//              trailing partial lane group), with the user's m
//              dimensions drawn one user at a time from the chunk's
//              dimension-sampler stream and expanded in Floyd draw
//              order.
//   kV3Batched the batched-sampling stream contract. Dense (m == d)
//              runs are IDENTICAL to kV2Lanes — same streams, same draw
//              layout, bit-for-bit equal outputs. Sampled (m < d) runs
//              keep the kV2 stream seeding (dimension draws from the
//              chunk's dimension-sampler stream, perturbation draws from
//              the chunk's four lane streams) but change the layout:
//              (1) all kUsersPerChunk x m dimension draws of a chunk
//              happen up front (Floyd per user, in user order — the
//              UniformInt draw sequence of v2 — with each user's picks
//              then sorted ascending, so expansion walks entries in
//              index order); (2) consecutive users' expanded entries
//              pack into one lane span of >=
//              engine::kSampledEntriesPerBlock entries (flushed at the
//              first user boundary reaching the budget, plus the
//              chunk's remainder), perturbed by a
//              single PerturbLanes call — entry base + l of each
//              4-entry group draws from lane l ACROSS user boundaries,
//              and only a block's trailing partial group pads. Same
//              determinism guarantees as v2: outputs are a pure function
//              of (data, seed), invariant to thread count and
//              SIMD-vs-scalar builds. The default of both estimation
//              pipelines since the block layout landed.
//
// Compact encodings. The communication-efficient report encodings
// (oue | olh | hadamard1) have their own frozen scalar draw layouts,
// carried by the kV1–kV3 chunk seeding rather than by a new scheme —
// an encoding selects WHAT is drawn per user, the seed scheme still
// selects WHICH stream the chunk draws from:
//
//   Batch pipelines (freq oracle / hadamard1 mean): one scalar
//   Rng(chunk_seed) per 4096-user chunk. Per user, first one Floyd
//   SampleWithoutReplacement(d, m) walk, then per sampled dimension
//   the encoder draws, walked in DRAW order for the oracles and in
//   ascending-dimension order for hadamard1 (whose sampler sorts).
//   Per-dimension encoder draws (frozen, shared bit for bit between
//   the wire encoders in freq/encoding.h + protocol/hadamard.h and
//   the inlined pipeline loops):
//     oue        exactly ceil(cardinality/4) raw Next() draws; draw D's
//                four 16-bit lanes, least significant first, decide bit
//                positions 4D..4D+3 — bit k is set iff its lane <
//                32768 (the truth bit, p = 1/2 exactly) or < q16 (any
//                other bit, q quantized to q16/65536, rounded up so
//                the realized flip rate never dips below the eps-LDP
//                floor).
//     olh        one Next() whose low 32 bits are the report's hash
//                seed (the multiplicative family OlhHasher — frozen),
//                one uniform truth coin against p, and, only when
//                lying, one UniformInt(g - 1) with an offset skip past
//                the true bucket.
//     hadamard1  one UniformInt(padded) row index, one uniform sign
//                coin. The m-of-d dimension subset comes from
//                Hadamard1SampleDims' own derived stream (seeded from
//                the 32-bit sample seed), not from the chunk stream.
//
//   Service streams (service::ReportStream): one scalar stream per
//   report, Rng(ReportSeed(seed, index)) — reports are independently
//   replayable, which is what makes faulted/resumed ingestion
//   deterministic. hadamard1 draws the d tuple uniforms, one raw
//   Next() whose high 32 bits become the sample seed, then the encode
//   pair; oue/olh draw the Floyd walk, then per sampled question IN
//   DRAW ORDER one UniformInt(c) answer followed by that question's
//   encoder draws; payload dims sort ascending only after all draws.
//
// Changing any of these layouts (a draw added, an order swapped, the
// hash family or the q16 rounding changed) breaks recorded payloads
// and the golden estimate pins in tests/test_encodings.cc — it would
// be a new encoding name, not an edit. Decision record: the encodings
// stay scalar (no lane variant) because the oracle hot loop is one
// Next() per four categories — already past the point where 4-wide
// lanes pay for their shuffle overhead — and, like RunSingleDimension
// (whose draws are the kV1Scalar contract for the same reason), they
// would need a new stream contract here the day that tradeoff flips.
//
// A seed value means different draws under the schemes by design; what
// each scheme guarantees is that its own outputs never change. (One
// recorded exception: the Hybrid lane body's draw layout was
// re-specified from three rounds to the shared-coin two-round form one
// PR after kV2Lanes shipped, before any recorded v2 hybrid runs
// existed; the re-recorded goldens in tests/test_rng_lanes.cc freeze
// the layout from that point on.)
// Note the lane count is part of the v2/v3 stream layouts: value base +
// l of each 4-value group draws from lane l, so widening to 8 lanes
// (AVX-512) cannot reuse these contracts — it would be a kV4 scheme
// with its own golden streams, selected the same way v1 and v2 stay
// selectable today. The block budget (engine::kSampledEntriesPerBlock)
// and the flush-at-user-boundary rule are likewise part of the v3 layout:
// changing either re-aligns entries to lanes and would be a new scheme,
// not a tuning knob.

#ifndef HDLDP_COMMON_RNG_LANES_H_
#define HDLDP_COMMON_RNG_LANES_H_

#include <cstddef>
#include <cstdint>

#include "common/lane_math.h"
#include "common/rng.h"

namespace hdldp {

// SeedScheme itself lives in common/rng.h so pipeline headers can name
// the contract without pulling the SIMD kernels into their include
// graph; this file is the scheme's full documentation (see above).

/// \brief Seed of lane `lane` under `seed`: decorrelates the four lane
/// streams from each other and from the chunk seeds they derive from.
inline std::uint64_t LaneSeed(std::uint64_t seed, std::size_t lane) {
  std::uint64_t mix =
      seed + 0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(lane) + 1);
  return SplitMix64(&mix);
}

/// \brief Four independent xoshiro256++ streams advanced in lockstep.
class RngLanes {
 public:
  static constexpr std::size_t kLanes = lanes::kLanes;

  /// True when this build advances lanes with AVX2 (informational; output
  /// is bit-identical either way).
  static constexpr bool kSimdEnabled = HDLDP_SIMD_AVX2 != 0;

  /// Lane l's stream is exactly Rng(LaneSeed(seed, l))'s stream.
  explicit RngLanes(std::uint64_t seed) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      std::uint64_t state[4];
      Rng(LaneSeed(seed, l)).ExportState(state);
      for (int w = 0; w < 4; ++w) s_[w][l] = state[w];
    }
  }

#if HDLDP_SIMD_AVX2
  /// \brief Advances every lane one step, returning the four raw outputs
  /// as a vector register (SIMD builds only).
  __m256i NextVecRaw() {
    __m256i s0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(s_[0]));
    __m256i s1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(s_[1]));
    __m256i s2 = _mm256_load_si256(reinterpret_cast<const __m256i*>(s_[2]));
    __m256i s3 = _mm256_load_si256(reinterpret_cast<const __m256i*>(s_[3]));
    const __m256i result =
        _mm256_add_epi64(Rotl(_mm256_add_epi64(s0, s3), 23), s0);
    const __m256i t = _mm256_slli_epi64(s1, 17);
    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = Rotl(s3, 45);
    _mm256_store_si256(reinterpret_cast<__m256i*>(s_[0]), s0);
    _mm256_store_si256(reinterpret_cast<__m256i*>(s_[1]), s1);
    _mm256_store_si256(reinterpret_cast<__m256i*>(s_[2]), s2);
    _mm256_store_si256(reinterpret_cast<__m256i*>(s_[3]), s3);
    return result;
  }
#endif

  /// \brief Advances every lane one step; out[l] is lane l's next raw
  /// 64-bit xoshiro256++ output.
  void NextLanes(std::uint64_t out[kLanes]) {
#if HDLDP_SIMD_AVX2
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), NextVecRaw());
#else
    NextLanesScalar(out);
#endif
  }

  /// \brief Portable scalar twin of NextLanes; always compiled so a SIMD
  /// build can assert bit-identity against it in-process.
  void NextLanesScalar(std::uint64_t out[kLanes]) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::uint64_t result = RotlScalar(s_[0][l] + s_[3][l], 23) + s_[0][l];
      const std::uint64_t t = s_[1][l] << 17;
      s_[2][l] ^= s_[0][l];
      s_[3][l] ^= s_[1][l];
      s_[1][l] ^= s_[2][l];
      s_[0][l] ^= s_[3][l];
      s_[2][l] ^= t;
      s_[3][l] = RotlScalar(s_[3][l], 45);
      out[l] = result;
    }
  }

  /// \brief One uniform double in [0, 1) per lane, on the 2^-52 grid (52
  /// random bits — the widest exact uint64 -> double move available to
  /// both the AVX2 and scalar paths; see the v2 scheme note above).
  lanes::Vec UniformVec() {
#if HDLDP_SIMD_AVX2
    const __m256i bits = _mm256_srli_epi64(NextVecRaw(), 12);
    // bits < 2^52: or-ing the magic exponent and subtracting 2^52 is the
    // exact integer -> double conversion (same trick as lanes::LogVec).
    const __m256d exact = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            bits,
            _mm256_set1_epi64x(static_cast<long long>(lanes::kExpMagic)))),
        _mm256_set1_pd(lanes::kTwo52));
    return {_mm256_mul_pd(exact, _mm256_set1_pd(0x1.0p-52))};
#else
    std::uint64_t raw[kLanes];
    NextLanes(raw);
    lanes::Vec u;
    for (std::size_t l = 0; l < kLanes; ++l) {
      u.v[l] = static_cast<double>(raw[l] >> 12) * 0x1.0p-52;
    }
    return u;
#endif
  }

  /// \brief Array form of UniformVec.
  void UniformDoubleLanes(double out[kLanes]) {
    lanes::Store(out, UniformVec());
  }

 private:
#if HDLDP_SIMD_AVX2
  static __m256i Rotl(__m256i x, int k) {
    return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
  }
#endif
  static std::uint64_t RotlScalar(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  // Structure-of-arrays: s_[word][lane], one cache line of state.
  alignas(32) std::uint64_t s_[4][kLanes];
};

}  // namespace hdldp

#endif  // HDLDP_COMMON_RNG_LANES_H_
