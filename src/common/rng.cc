#include "common/rng.h"

#include <bit>
#include <cassert>
#include <cmath>

namespace hdldp {

std::uint64_t SplitMix64(std::uint64_t* x) {
  std::uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::UniformInt(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire's rejection method: unbiased and branch-light.
  std::uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

std::int64_t Rng::Poisson(double mean) {
  assert(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    double product = UniformDouble();
    std::int64_t count = 0;
    while (product > limit) {
      ++count;
      product *= UniformDouble();
    }
    return count;
  }
  // Normal approximation with continuity correction; the generators only
  // need the right mean/variance/shape at large lambda.
  const double draw = Gaussian(mean, std::sqrt(mean));
  return draw < 0.0 ? 0 : static_cast<std::int64_t>(std::floor(draw + 0.5));
}

void Rng::SampleWithoutReplacement(std::size_t d, std::size_t m,
                                   std::vector<std::uint32_t>* out) {
  assert(m <= d);
  // Floyd's algorithm: O(m) expected time, no O(d) scratch. The membership
  // probe over the freshly appended suffix is O(m^2) worst case, which is
  // fine for the m <= d <= a few thousand regimes hdldp runs at; callers
  // sampling m == d get the fast path below.
  const std::size_t base = out->size();
  if (m == d) {
    for (std::size_t j = 0; j < d; ++j) {
      out->push_back(static_cast<std::uint32_t>(j));
    }
    return;
  }
  for (std::size_t j = d - m; j < d; ++j) {
    const auto candidate =
        static_cast<std::uint32_t>(UniformInt(static_cast<std::uint64_t>(j) + 1));
    bool seen = false;
    for (std::size_t k = base; k < out->size(); ++k) {
      if ((*out)[k] == candidate) {
        seen = true;
        break;
      }
    }
    out->push_back(seen ? static_cast<std::uint32_t>(j) : candidate);
  }
}

void Rng::SampleWithoutReplacementBatch(std::size_t d, std::size_t m,
                                        std::size_t count, bool sorted,
                                        BatchSamplerScratch* scratch,
                                        std::vector<std::uint32_t>* out) {
  assert(m <= d);
  out->reserve(out->size() + m * count);
  if (m == d) {
    // No draws, matching the scalar fast path; 0..d-1 is already sorted.
    for (std::size_t u = 0; u < count; ++u) {
      for (std::size_t j = 0; j < d; ++j) {
        out->push_back(static_cast<std::uint32_t>(j));
      }
    }
    return;
  }
  const std::size_t words = (d + 63) / 64;
  if (scratch->mark_bits.size() < words) {
    scratch->mark_bits.resize(words, 0);  // New words start cleared.
  }
  std::uint64_t* bits = scratch->mark_bits.data();
  for (std::size_t u = 0; u < count; ++u) {
    const std::size_t base = out->size();
    std::size_t lo_word = words;
    std::size_t hi_word = 0;
    // Floyd's algorithm, draw-for-draw identical to
    // SampleWithoutReplacement: the membership test's outcome is the
    // same whether it probes the appended suffix or the bitmask, so
    // UniformInt sees the same bound sequence. The fallback pick j can
    // never be set already (earlier iterations only pick values < j).
    for (std::size_t j = d - m; j < d; ++j) {
      const auto candidate = static_cast<std::uint32_t>(
          UniformInt(static_cast<std::uint64_t>(j) + 1));
      const bool seen = (bits[candidate >> 6] >> (candidate & 63)) & 1u;
      const std::uint32_t pick =
          seen ? static_cast<std::uint32_t>(j) : candidate;
      const std::size_t word = pick >> 6;
      bits[word] |= std::uint64_t{1} << (pick & 63);
      lo_word = std::min(lo_word, word);
      hi_word = std::max(hi_word, word);
      if (!sorted) out->push_back(pick);
    }
    if (sorted) {
      // Emit the m set bits ascending — sortedness falls out of the
      // walk, never from a comparison sort (whose data-dependent
      // branches mispredict on random picks). Each word is cleared as
      // it is consumed so the mask is ready for the next user; only the
      // word range the picks landed in is touched, and the walk stops
      // at the m-th bit.
      std::size_t emitted = 0;
      for (std::size_t w = lo_word; w <= hi_word && emitted < m; ++w) {
        std::uint64_t word = bits[w];
        bits[w] = 0;
        while (word != 0) {
          const unsigned bit = static_cast<unsigned>(std::countr_zero(word));
          word &= word - 1;
          out->push_back(static_cast<std::uint32_t>((w << 6) + bit));
          ++emitted;
        }
      }
    } else {
      for (std::size_t k = base; k < out->size(); ++k) {
        const std::uint32_t pick = (*out)[k];
        bits[pick >> 6] &= ~(std::uint64_t{1} << (pick & 63));
      }
    }
  }
}

}  // namespace hdldp
