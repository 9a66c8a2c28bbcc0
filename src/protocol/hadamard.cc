#include "protocol/hadamard.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/math.h"

namespace hdldp {
namespace protocol {

Result<Hadamard1Params> Hadamard1Params::Create(std::size_t num_dims,
                                                std::size_t report_dims,
                                                double epsilon) {
  if (num_dims == 0 || report_dims == 0 || report_dims > num_dims) {
    return Status::InvalidArgument(
        "Hadamard encoding requires 1 <= report_dims <= num_dims");
  }
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("Hadamard encoding requires epsilon > 0");
  }
  Hadamard1Params params;
  params.num_dims = num_dims;
  params.report_dims = report_dims;
  params.padded = std::bit_ceil(report_dims);
  params.epsilon = epsilon;
  params.c = std::tanh(epsilon / 2.0);  // (e^eps - 1) / (e^eps + 1), stably.
  params.c_inv = 1.0 / params.c;
  params.bound = static_cast<double>(report_dims);
  return params;
}

void Hadamard1SampleDims(std::uint32_t sample_seed, std::size_t num_dims,
                         std::size_t report_dims,
                         std::vector<std::uint32_t>* out) {
  std::uint64_t mix = 0x5add5eedULL + sample_seed;
  Rng rng(SplitMix64(&mix));
  out->clear();
  rng.SampleWithoutReplacement(num_dims, report_dims, out);
  std::sort(out->begin(), out->end());
}

double Hadamard1Projection(std::uint32_t index,
                           std::span<const double> sampled_values) {
  double s = 0.0;
  for (std::size_t pos = 0; pos < sampled_values.size(); ++pos) {
    s += HadamardSign(index, static_cast<std::uint32_t>(pos)) *
         Clamp(sampled_values[pos], -1.0, 1.0);
  }
  return s;
}

Hadamard1Report Hadamard1Encode(const Hadamard1Params& params,
                                std::span<const double> sampled_values,
                                Rng* rng) {
  Hadamard1Report report;
  report.index = static_cast<std::uint32_t>(rng->UniformInt(params.padded));
  const double s = Hadamard1Projection(report.index, sampled_values);
  report.positive =
      rng->UniformDouble() < 0.5 + params.c * s / (2.0 * params.bound);
  return report;
}

Status Hadamard1Decode(const Hadamard1Params& params,
                       std::span<const std::uint32_t> dims,
                       std::uint32_t index, bool positive, UserReport* out) {
  if (dims.size() != params.report_dims) {
    return Status::InvalidArgument(
        "Hadamard report carries " + std::to_string(dims.size()) +
        " dimensions, params expect " + std::to_string(params.report_dims));
  }
  if (index >= params.padded) {
    return Status::InvalidArgument(
        "Hadamard row index exceeds the padded order");
  }
  out->entries.clear();
  for (std::size_t pos = 0; pos < dims.size(); ++pos) {
    out->entries.push_back(DimensionReport{
        dims[pos], Hadamard1EntryValue(params, index,
                                       static_cast<std::uint32_t>(pos),
                                       positive)});
  }
  return Status::OK();
}

}  // namespace protocol
}  // namespace hdldp
