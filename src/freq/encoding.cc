#include "freq/encoding.h"

#include <algorithm>
#include <cmath>

namespace hdldp {
namespace freq {

CategoricalSchema::CategoricalSchema(std::vector<std::size_t> cardinalities)
    : cardinalities_(std::move(cardinalities)) {
  offsets_.reserve(cardinalities_.size() + 1);
  offsets_.push_back(0);
  for (const std::size_t v : cardinalities_) {
    offsets_.push_back(offsets_.back() + v);
  }
}

Result<CategoricalSchema> CategoricalSchema::Create(
    std::vector<std::size_t> cardinalities) {
  if (cardinalities.empty()) {
    return Status::InvalidArgument("schema requires >= 1 dimension");
  }
  for (const std::size_t v : cardinalities) {
    if (v < 2) {
      return Status::InvalidArgument("schema requires cardinalities >= 2");
    }
  }
  return CategoricalSchema(std::move(cardinalities));
}

CategoricalDataset::CategoricalDataset(std::size_t num_users,
                                       CategoricalSchema schema)
    : num_users_(num_users),
      schema_(std::move(schema)),
      values_(num_users * schema_.num_dims(), 0) {}

Result<CategoricalDataset> CategoricalDataset::Create(
    std::size_t num_users, CategoricalSchema schema) {
  if (num_users == 0) {
    return Status::InvalidArgument("dataset requires num_users > 0");
  }
  return CategoricalDataset(num_users, std::move(schema));
}

Status CategoricalDataset::Set(std::size_t i, std::size_t j,
                               std::uint32_t category) {
  if (i >= num_users_ || j >= schema_.num_dims()) {
    return Status::OutOfRange("CategoricalDataset::Set index out of range");
  }
  if (category >= schema_.Cardinality(j)) {
    return Status::OutOfRange("CategoricalDataset::Set category out of range");
  }
  values_[i * schema_.num_dims() + j] = category;
  return Status::OK();
}

std::vector<std::vector<double>> CategoricalDataset::TrueFrequencies() const {
  std::vector<std::vector<double>> freqs(schema_.num_dims());
  for (std::size_t j = 0; j < schema_.num_dims(); ++j) {
    freqs[j].assign(schema_.Cardinality(j), 0.0);
  }
  for (std::size_t i = 0; i < num_users_; ++i) {
    for (std::size_t j = 0; j < schema_.num_dims(); ++j) {
      freqs[j][At(i, j)] += 1.0;
    }
  }
  const auto n = static_cast<double>(num_users_);
  for (auto& f : freqs) {
    for (double& v : f) v /= n;
  }
  return freqs;
}

Result<std::span<const double>> CategoricalChunkSource::Chunk(
    std::size_t chunk, data::ChunkBuffer* buffer) const {
  if (chunk >= num_chunks()) {
    return Status::OutOfRange("chunk index out of range");
  }
  const std::size_t d = num_dims();
  const std::size_t begin = ChunkBegin(chunk);
  const std::size_t users = ChunkUsers(chunk);
  std::vector<double>& out = buffer->storage();
  out.resize(users * d);
  for (std::size_t i = 0; i < users; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      out[i * d + j] = static_cast<double>(dataset_->At(begin + i, j));
    }
  }
  return std::span<const double>(out.data(), out.size());
}

Result<CategoricalDataset> GenerateCategorical(std::size_t num_users,
                                               CategoricalSchema schema,
                                               double zipf_exponent,
                                               Rng* rng) {
  if (zipf_exponent < 0.0) {
    return Status::InvalidArgument("zipf_exponent must be >= 0");
  }
  HDLDP_ASSIGN_OR_RETURN(CategoricalDataset out,
                         CategoricalDataset::Create(num_users, schema));
  const CategoricalSchema& s = out.schema();
  // Per-dimension cumulative Zipf tables.
  std::vector<std::vector<double>> cdfs(s.num_dims());
  for (std::size_t j = 0; j < s.num_dims(); ++j) {
    auto& cdf = cdfs[j];
    cdf.resize(s.Cardinality(j));
    double total = 0.0;
    for (std::size_t k = 0; k < cdf.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), zipf_exponent);
      cdf[k] = total;
    }
    for (double& c : cdf) c /= total;
    cdf.back() = 1.0;
  }
  for (std::size_t i = 0; i < num_users; ++i) {
    for (std::size_t j = 0; j < s.num_dims(); ++j) {
      const double u = rng->UniformDouble();
      const auto& cdf = cdfs[j];
      std::uint32_t k = 0;
      while (k + 1 < cdf.size() && u >= cdf[k]) ++k;
      HDLDP_RETURN_NOT_OK(out.Set(i, j, k));
    }
  }
  return out;
}

Result<OueParams> OueParams::FromEpsilon(double epsilon) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("OUE requires epsilon > 0");
  }
  OueParams params;
  params.epsilon = epsilon;
  // Quantize the ideal q = 1/(e^eps + 1) to 16-bit fixed point, rounding
  // UP: q_eff >= q keeps ln(p(1-q_eff) / (q_eff(1-p))) <= eps, so the
  // lane encoder never under-randomizes. Decode inverts q_eff exactly.
  const double ideal = 1.0 / (std::exp(epsilon) + 1.0);
  params.q16 =
      static_cast<std::uint32_t>(std::ceil(ideal * 65536.0));
  if (params.q16 >= 32768) {
    return Status::InvalidArgument(
        "OUE epsilon too small for the 16-bit lane quantization "
        "(requires epsilon > ~6e-5)");
  }
  if (params.q16 == 0) params.q16 = 1;  // Unreachable (ideal > 0); belt.
  params.q = static_cast<double>(params.q16) / 65536.0;
  return params;
}

namespace {

// 16-bit lane threshold of bit position k: 32768 (= p * 65536) for the
// true category, params.q16 otherwise.
std::uint32_t OueLaneThreshold(const OueParams& params,
                               std::uint32_t category, std::uint32_t k) {
  return k == category ? 32768u : params.q16;
}

}  // namespace

void OueEncodeDim(const OueParams& params, std::uint32_t category,
                  std::size_t cardinality, Rng* rng,
                  std::vector<std::uint8_t>* bits) {
  bits->assign((cardinality + 7u) / 8u, 0);
  std::uint64_t word = 0;
  for (std::uint32_t k = 0; k < cardinality; ++k) {
    if ((k & 3u) == 0) word = rng->Next();
    const auto lane =
        static_cast<std::uint32_t>((word >> ((k & 3u) * 16)) & 0xFFFFu);
    if (lane < OueLaneThreshold(params, category, k)) {
      (*bits)[k >> 3] |= std::uint8_t(1) << (k & 7u);
    }
  }
}

Result<OlhParams> OlhParams::FromEpsilon(double epsilon) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("OLH requires epsilon > 0");
  }
  OlhParams params;
  params.epsilon = epsilon;
  const double e = std::exp(epsilon);
  params.g = std::max<std::uint64_t>(
      2, static_cast<std::uint64_t>(std::llround(e)) + 1);
  params.p = e / (e + static_cast<double>(params.g) - 1.0);
  return params;
}

std::uint32_t OlhHash(std::uint32_t hash_seed, std::uint32_t category,
                      std::uint64_t g) {
  return OlhHasher(hash_seed).Bucket(category, g);
}

OlhDimReport OlhEncodeDim(const OlhParams& params, std::uint32_t category,
                          Rng* rng) {
  OlhDimReport report;
  report.hash_seed = static_cast<std::uint32_t>(rng->Next());
  const std::uint32_t truth = OlhHash(report.hash_seed, category, params.g);
  if (rng->Bernoulli(params.p)) {
    report.value = truth;
  } else {
    auto lie = static_cast<std::uint32_t>(rng->UniformInt(params.g - 1));
    report.value = lie + (lie >= truth ? 1 : 0);
  }
  return report;
}

}  // namespace freq
}  // namespace hdldp
