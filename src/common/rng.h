// Deterministic random number generation for hdldp.
//
// All randomized components take an explicit Rng so every experiment in the
// repository is reproducible from a single seed. The engine is xoshiro256++
// (public-domain, Blackman & Vigna) seeded via SplitMix64, which gives
// high-quality 64-bit output at ~1ns/draw — perturbation loops in the
// benchmark harness draw hundreds of millions of variates.

#ifndef HDLDP_COMMON_RNG_H_
#define HDLDP_COMMON_RNG_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <limits>
#include <vector>

namespace hdldp {

/// \brief Reusable scratch of Rng::SampleWithoutReplacementBatch: the
/// d-bit membership bitmask Floyd's probe tests, hoisted out of the
/// per-user loop so a chunk of thousands of users pays one allocation.
/// Bit j set means dimension j is already sampled for the user currently
/// being drawn; the sampler leaves every bit cleared again between
/// users (the sorted emission clears as it walks), so the mask never
/// needs a wipe. Cheap to default-construct; one instance per worker
/// thread.
struct BatchSamplerScratch {
  std::vector<std::uint64_t> mark_bits;
};

/// \brief Deterministic pseudo-random generator with distribution helpers.
///
/// Satisfies the C++ UniformRandomBitGenerator concept, so it can also be
/// handed to <random> adaptors, though hdldp uses its own samplers to keep
/// results bit-stable across standard-library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the engine. Two Rng instances with the same seed produce
  /// identical streams on every platform.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// \brief Next raw 64-bit output (xoshiro256++).
  ///
  /// Inline (like the other single-draw samplers below): perturbation
  /// loops draw hundreds of millions of variates and the out-of-line
  /// call cost was visible in bench_micro's ingestion throughput.
  result_type Next() {
    const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  result_type operator()() { return Next(); }

  /// \brief Copies the raw 256-bit xoshiro state into `out` (how RngLanes
  /// seeds its lanes); the Gaussian pair cache is not part of it.
  void ExportState(std::uint64_t out[4]) const {
    for (int w = 0; w < 4; ++w) out[w] = s_[w];
  }

  /// \brief Uniform double in [0, 1) with 53 random bits.
  double UniformDouble() {
    // 53 high bits -> uniform in [0, 1) on the representable grid.
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// \brief Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi) {
    assert(lo <= hi);
    return lo + (hi - lo) * UniformDouble();
  }

  /// \brief Uniform integer in [0, bound), bias-free. Requires bound > 0.
  std::uint64_t UniformInt(std::uint64_t bound);

  /// \brief True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  /// \brief Exponential variate with the given rate (mean 1/rate).
  double Exponential(double rate) {
    assert(rate > 0.0);
    // -log(1-U) keeps the argument strictly positive since U in [0,1).
    return -std::log1p(-UniformDouble()) / rate;
  }

  /// \brief Zero-mean Laplace variate with scale b (variance 2b²).
  double Laplace(double scale) {
    assert(scale > 0.0);
    const double u = UniformDouble() - 0.5;
    // Branch-free form of u < 0 ? scale * log1p(2u) : -scale * log1p(-2u):
    // both arms evaluate log1p at exactly -2|u|, so only the sign factor
    // is selected (indexed, never a mispredicted 50/50 branch). Values
    // are bit-identical to the branchy form.
    const double sign_sel[2] = {-scale, scale};
    return sign_sel[u < 0.0] * std::log1p(-2.0 * std::abs(u));
  }

  /// \brief Standard normal variate (Marsaglia polar method, cached pair).
  double Gaussian();

  /// \brief Normal variate with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// \brief Poisson variate. Knuth multiplication below mean 30, else
  /// normal approximation with continuity correction (adequate for the
  /// dataset generators, where only the shape of the marginal matters).
  std::int64_t Poisson(double mean);

  /// \brief Geometric number of failures before first success, support
  /// {0, 1, ...}, success probability p in (0, 1].
  std::int64_t Geometric(double p) {
    assert(p > 0.0 && p <= 1.0);
    if (p == 1.0) return 0;
    const double u = UniformDouble();
    return static_cast<std::int64_t>(
        std::floor(std::log1p(-u) / std::log1p(-p)));
  }

  /// \brief Samples `m` distinct indices from {0, ..., d-1} (Floyd's
  /// algorithm), appended to *out in unspecified order. Requires m <= d.
  void SampleWithoutReplacement(std::size_t d, std::size_t m,
                                std::vector<std::uint32_t>* out);

  /// \brief Draws `count` independent m-of-d samples in one call (Floyd
  /// per user), appending each user's `m` distinct indices to *out —
  /// sorted ascending when `sorted` is set, in Floyd draw order
  /// otherwise. The RNG consumes exactly the draws of `count` successive
  /// SampleWithoutReplacement calls (ordering happens after the draws),
  /// so the stream position afterwards is identical; only the output
  /// order differs. `scratch` hoists the membership bitmask out of the
  /// per-user loop: the probe is an O(1) bit test instead of the scalar
  /// path's O(m) suffix scan, and the sorted order falls out of walking
  /// the set bits ascending rather than a comparison sort — which is
  /// what makes chunk-granular batch sampling cheap at large m.
  /// Requires m <= d.
  void SampleWithoutReplacementBatch(std::size_t d, std::size_t m,
                                     std::size_t count, bool sorted,
                                     BatchSamplerScratch* scratch,
                                     std::vector<std::uint32_t>* out);

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// \brief SplitMix64 step: mixes `x` into the next state and returns a
/// 64-bit output. Used for seeding and for hashing seeds together.
std::uint64_t SplitMix64(std::uint64_t* x);

/// \brief Versioned RNG stream contract of a pipeline run.
///
/// kV1Scalar: one scalar xoshiro256++ stream (53-bit uniforms, libm
/// transforms) — the pre-lane-era contract, preserved so recorded runs
/// keep their exact outputs. kV2Lanes: four lane streams per 4096-user
/// chunk (52-bit uniforms, deterministic lane log), one lane span per
/// user on the sampled (m < d) path. kV3Batched: identical to kV2Lanes
/// on dense (m == d) runs; on sampled runs the chunk's dimension draws
/// happen up front (sorted per user) and many users' expanded entries
/// pack into one long lane span — the fast sampled path, still invariant
/// to thread count and to SIMD-vs-scalar builds. Full contract
/// documentation in common/rng_lanes.h. A seed means different draws
/// under the schemes by design; each scheme guarantees only that its own
/// outputs never change.
enum class SeedScheme {
  kV1Scalar = 1,
  kV2Lanes = 2,
  kV3Batched = 3,
};

/// \brief Independent stream seed of chunk `chunk` under `seed`.
///
/// The parallel pipelines decompose a population into fixed-size user
/// chunks; chunk c always draws from Rng(ChunkSeed(seed, c)) (or the lane
/// generator seeded with it), which is what makes estimates a pure
/// function of (data, seed) regardless of the worker count.
inline std::uint64_t ChunkSeed(std::uint64_t seed, std::size_t chunk) {
  std::uint64_t mix =
      seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(chunk) + 1);
  return SplitMix64(&mix);
}

}  // namespace hdldp

#endif  // HDLDP_COMMON_RNG_H_
