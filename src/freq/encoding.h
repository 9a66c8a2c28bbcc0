// Histogram (one-hot) encoding of categorical data (paper Section V-C,
// following Wang et al. [37]).
//
// A categorical dimension with v_j categories expands into v_j numerical
// entries in [0, 1]; a value c becomes the v_j-entry vector with a single
// 1 at position c. Estimating the per-entry means of the expanded space
// estimates the per-category frequencies, which is how the paper turns
// d-dimensional frequency estimation into d high-dimensional mean
// estimation tasks that HDR4ME can re-calibrate.

#ifndef HDLDP_FREQ_ENCODING_H_
#define HDLDP_FREQ_ENCODING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/chunk_source.h"

namespace hdldp {
namespace freq {

/// \brief Shape of a categorical dataset: per-dimension cardinalities and
/// the flat entry layout of its one-hot expansion.
class CategoricalSchema {
 public:
  /// Requires every cardinality >= 2.
  static Result<CategoricalSchema> Create(std::vector<std::size_t> cardinalities);

  /// Number of categorical dimensions d.
  std::size_t num_dims() const { return cardinalities_.size(); }
  /// Number of categories v_j of dimension j.
  std::size_t Cardinality(std::size_t j) const { return cardinalities_[j]; }
  /// Total entries sum_j v_j of the expanded space.
  std::size_t total_entries() const { return offsets_.back(); }
  /// Flat index of the first entry of dimension j.
  std::size_t EntryOffset(std::size_t j) const { return offsets_[j]; }

 private:
  explicit CategoricalSchema(std::vector<std::size_t> cardinalities);
  std::vector<std::size_t> cardinalities_;
  std::vector<std::size_t> offsets_;  // Prefix sums; size d + 1.
};

/// \brief Dense matrix of categorical tuples: n users x d dimensions.
class CategoricalDataset {
 public:
  static Result<CategoricalDataset> Create(std::size_t num_users,
                                           CategoricalSchema schema);

  std::size_t num_users() const { return num_users_; }
  const CategoricalSchema& schema() const { return schema_; }

  std::uint32_t At(std::size_t i, std::size_t j) const {
    return values_[i * schema_.num_dims() + j];
  }
  /// Sets user i's category in dimension j (must be < Cardinality(j)).
  Status Set(std::size_t i, std::size_t j, std::uint32_t category);

  /// \brief True per-category frequencies of each dimension.
  std::vector<std::vector<double>> TrueFrequencies() const;

 private:
  CategoricalDataset(std::size_t num_users, CategoricalSchema schema);
  std::size_t num_users_;
  CategoricalSchema schema_;
  std::vector<std::uint32_t> values_;
};

/// \brief ChunkSource adapter over a resident CategoricalDataset:
/// delivers category indices as doubles (the ChunkSource value type), so
/// categorical populations ride the same streaming machinery as
/// numerical ones — shard directories included (WriteShards accepts this
/// source directly, and the streaming frequency pipeline reads the
/// resulting shards back). Non-owning; the dataset must outlive it.
class CategoricalChunkSource final : public data::ChunkSource {
 public:
  explicit CategoricalChunkSource(const CategoricalDataset* dataset)
      : dataset_(dataset) {}

  std::size_t num_users() const override { return dataset_->num_users(); }
  std::size_t num_dims() const override {
    return dataset_->schema().num_dims();
  }
  Result<std::span<const double>> Chunk(
      std::size_t chunk, data::ChunkBuffer* buffer) const override;

 private:
  const CategoricalDataset* dataset_;
};

/// \brief Random categorical data with per-dimension Zipf(s) marginals
/// (s = 0 gives uniform categories; larger s skews toward low indices).
Result<CategoricalDataset> GenerateCategorical(std::size_t num_users,
                                               CategoricalSchema schema,
                                               double zipf_exponent, Rng* rng);

// ---------------------------------------------------------------------------
// Frequency-oracle encodings (OUE / OLH, Wang et al., arXiv 1705.04630 /
// 1907.00782). Unlike the numeric path — which perturbs every one-hot
// entry through a value mechanism at eps/(2m) — a frequency oracle
// randomizes the whole categorical answer at once: the report for one
// sampled dimension is eps'-LDP as a unit at eps' = eps/m, so a user
// sampling m of d dimensions stays eps-LDP overall. The client pays a
// few branch-free integer draws per dimension (ceil(cardinality/4) for
// OUE, O(1) for OLH) instead of one transcendental mechanism draw per
// entry, and the wire ships bits instead of doubles.
// ---------------------------------------------------------------------------

/// \brief Optimized unary encoding: the true category's bit survives with
/// p = 1/2 and every other bit flips on with q ~= 1/(e^eps + 1). A
/// one-hot vector pair differs in <= 2 coordinates, so the whole bit
/// vector is eps-LDP: ln((p(1-q)) / (q(1-p))) = eps.
///
/// q is quantized to 16-bit fixed point, ROUNDED UP: the encoder draws
/// each bit by comparing a uniform 16-bit lane against a threshold
/// (32768 for the truth bit — exactly p = 1/2 — and q16 otherwise), so
/// one raw 64-bit draw yields four bits and the whole vector needs
/// ceil(cardinality/4) draws with no transcendentals. q_eff = q16/65536
/// >= 1/(e^eps+1) means the realized flip odds satisfy the eps bound
/// with slack (more noise than the ideal q, never less privacy), and
/// Decode/EntryValue invert q_eff exactly, so estimates stay unbiased.
struct OueParams {
  double epsilon = 0.0;
  double p = 0.5;
  /// Effective zero-bit flip probability q16 / 65536.
  double q = 0.0;
  /// 16-bit lane threshold of the zero bits (the truth bit uses 32768).
  std::uint32_t q16 = 0;

  /// Requires epsilon > 0 (the per-dimension budget eps/m). Rejects
  /// epsilon so small that the quantized q collides with p = 1/2
  /// (epsilon below ~6e-5).
  static Result<OueParams> FromEpsilon(double epsilon);

  /// \brief Unbiased frequency estimate from a support count over r
  /// reports: (count/r - q) / (p - q).
  double Decode(double count, double reports) const {
    return (count / reports - q) / (p - q);
  }
  /// \brief Unbiased per-report contribution of bit value b in {0, 1}:
  /// (b - q) / (p - q). Averaging these over reports equals Decode.
  double EntryValue(bool bit) const {
    return ((bit ? 1.0 : 0.0) - q) / (p - q);
  }
};

/// \brief Encodes one categorical answer as a perturbed unary bit vector.
///
/// Draw layout (frozen; see common/rng_lanes.h, "compact encodings"):
/// exactly ceil(cardinality/4) raw Next() draws per dimension; draw D's
/// four 16-bit lanes, least-significant first, decide bit positions
/// k = 4D .. 4D+3 (excess lanes of the last draw are discarded).
/// Position k flips on iff its lane value is below its threshold (32768
/// = p * 65536 for the true category, params.q16 otherwise) — a
/// branch-free integer compare, no transcendentals, four bits per draw.
/// `bits` receives ceil(cardinality/8) bytes, LSB-first.
void OueEncodeDim(const OueParams& params, std::uint32_t category,
                  std::size_t cardinality, Rng* rng,
                  std::vector<std::uint8_t>* bits);

/// \brief Optimized local hashing: the answer hashes into g buckets under
/// a per-report seed and the bucket is reported through g-ary randomized
/// response (truth with p = e^eps / (e^eps + g - 1), else uniform over
/// the other g - 1 buckets). g = round(e^eps) + 1 minimizes variance.
struct OlhParams {
  double epsilon = 0.0;
  std::uint64_t g = 2;
  double p = 0.0;

  /// Requires epsilon > 0 (the per-dimension budget eps/m).
  static Result<OlhParams> FromEpsilon(double epsilon);

  /// \brief Unbiased frequency estimate from a support count over r
  /// reports: (count/r - 1/g) / (p - 1/g).
  double Decode(double count, double reports) const {
    const double q = 1.0 / static_cast<double>(g);
    return (count / reports - q) / (p - q);
  }
  /// \brief Unbiased per-report contribution of support indicator s in
  /// {0, 1} (s = "this category hashes to the reported bucket").
  double EntryValue(bool supports) const {
    const double q = 1.0 / static_cast<double>(g);
    return ((supports ? 1.0 : 0.0) - q) / (p - q);
  }
};

/// \brief The OLH hash family: multiplicative universal hashing with a
/// per-report multiplier. The seed is avalanched once through SplitMix64
/// into an odd 64-bit multiplier a; category x then buckets to
/// Lemire((a * (x + 1)) mod 2^64, g) — one 64-bit multiply plus one
/// widening multiply per category, so the aggregator's cardinality
/// support evaluations per report cost a handful of cycles each.
/// Frozen: the recorded stream contract depends on this family.
class OlhHasher {
 public:
  explicit OlhHasher(std::uint32_t hash_seed) {
    std::uint64_t x = hash_seed;
    a_ = SplitMix64(&x) | 1;
  }
  /// Bucket of `category` in [0, g).
  std::uint32_t Bucket(std::uint32_t category, std::uint64_t g) const {
    const std::uint64_t key =
        a_ * (static_cast<std::uint64_t>(category) + 1);
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(key) * g) >> 64);
  }

 private:
  std::uint64_t a_;
};

/// \brief One-shot OlhHasher(hash_seed).Bucket(category, g) — the
/// definitional form; hot loops hoist the OlhHasher per report instead.
std::uint32_t OlhHash(std::uint32_t hash_seed, std::uint32_t category,
                      std::uint64_t g);

/// \brief One OLH report for one categorical answer.
struct OlhDimReport {
  std::uint32_t hash_seed = 0;
  std::uint32_t value = 0;
};

/// \brief Encodes one categorical answer under OLH.
///
/// Draw layout (frozen; see common/rng_lanes.h, "compact encodings"):
/// one raw Next() whose low 32 bits seed the hash, one Bernoulli(p)
/// uniform for the truth coin, and — only when lying — one UniformInt
/// over the g - 1 other buckets.
OlhDimReport OlhEncodeDim(const OlhParams& params, std::uint32_t category,
                          Rng* rng);

}  // namespace freq
}  // namespace hdldp

#endif  // HDLDP_FREQ_ENCODING_H_
