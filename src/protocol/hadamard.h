// Hadamard 1-bit mean reports (the dp_compression / CLDP pattern,
// arXiv 2008.07180): instead of shipping m perturbed doubles, a user
// rotates her m sampled values by one random row of the order-`padded`
// Walsh-Hadamard matrix and reports a single randomized sign bit.
//
// Client, for values x_0..x_{m-1} in [-1, 1] at sampled dimensions
// dims[0] < ... < dims[m-1]:
//
//   s   = sum_pos H(index, pos) * x_pos,   |s| <= bound = m,
//   bit = +1 with probability 1/2 + c * s / (2 * bound),  c = tanh(eps/2).
//
// Changing one user's whole tuple moves s by at most 2 * bound, so the
// bit's two acceptance probabilities differ by a factor <= e^eps: the
// single bit is exactly eps-LDP for the full report (no per-dimension
// splitting).
//
// Decoder, per position: x_hat_pos = bit * bound * (1/c) * H(index, pos).
// Unbiasedness is exact because `padded` is a power of two:
// E_index[H(index, p) * H(index, q)] = delta_pq (row orthogonality of the
// Hadamard matrix), so E[x_hat_p] = (1/c) * E[c/bound * s * bound *
// H(index, p)] = x_p. Hadamard1Decode turns each report into m such
// entries, and the aggregator's per-dimension averages divide by the
// usual report counts — dimension sampling needs no extra correction.
// Per-entry variance is bound^2 / c^2, i.e. a per-dimension
// mean variance of about m * d / (n * c^2) — the same 1/eps^2 scaling as
// the paper's numeric mechanisms at small eps, for ~8 bytes on the wire
// instead of 8 * m.

#ifndef HDLDP_PROTOCOL_HADAMARD_H_
#define HDLDP_PROTOCOL_HADAMARD_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "protocol/report.h"

namespace hdldp {
namespace protocol {

/// \brief Parameters of the Hadamard 1-bit mean encoding.
struct Hadamard1Params {
  /// Total and sampled dimensionality (d, m).
  std::size_t num_dims = 0;
  std::size_t report_dims = 0;
  /// Hadamard order: the smallest power of two >= report_dims. Row
  /// indices draw uniformly from [0, padded); positions >= report_dims
  /// are implicit zeros.
  std::size_t padded = 1;
  /// Full privacy budget of the single bit.
  double epsilon = 0.0;
  /// c = (e^eps - 1) / (e^eps + 1) and its inverse (the decoder gain).
  double c = 0.0;
  double c_inv = 0.0;
  /// |s| bound: report_dims (every value is clamped to [-1, 1]).
  double bound = 0.0;

  /// Requires num_dims >= report_dims >= 1 and epsilon > 0.
  static Result<Hadamard1Params> Create(std::size_t num_dims,
                                        std::size_t report_dims,
                                        double epsilon);
};

/// \brief Entry (i, j) of the Walsh-Hadamard matrix (+-1), i.e.
/// (-1)^popcount(i & j).
inline double HadamardSign(std::uint32_t i, std::uint32_t j) {
  return (std::popcount(i & j) & 1) ? -1.0 : 1.0;
}

/// \brief The m sampled dimensions encoded by `sample_seed`, sorted
/// ascending — shared by client (choosing) and server (recovering), so
/// the wire ships 4 bytes instead of m indices. Deterministic: a Floyd
/// sample from a throwaway generator seeded by SplitMix64(sample_seed).
/// Frozen: recorded payloads depend on it.
void Hadamard1SampleDims(std::uint32_t sample_seed, std::size_t num_dims,
                         std::size_t report_dims,
                         std::vector<std::uint32_t>* out);

/// \brief The rotated projection s = sum_pos H(index, pos) * clamp(v_pos)
/// of the sampled values (in ascending-dimension order).
double Hadamard1Projection(std::uint32_t index,
                           std::span<const double> sampled_values);

/// \brief One encoded report (index + sign), pre-wire.
struct Hadamard1Report {
  std::uint32_t index = 0;
  bool positive = false;
};

/// \brief Encodes one report from the sampled values (ascending-dimension
/// order, clamped internally).
///
/// Draw layout (frozen; see common/rng_lanes.h, "compact encodings"):
/// one UniformInt(padded) for the row index, then one uniform for the
/// sign coin.
Hadamard1Report Hadamard1Encode(const Hadamard1Params& params,
                                std::span<const double> sampled_values,
                                Rng* rng);

/// \brief Unbiased decoded contribution of a report to position `pos`:
/// bit * bound * (1/c) * H(index, pos).
inline double Hadamard1EntryValue(const Hadamard1Params& params,
                                  std::uint32_t index, std::uint32_t pos,
                                  bool positive) {
  const double bit = positive ? 1.0 : -1.0;
  return bit * params.bound * params.c_inv * HadamardSign(index, pos);
}

/// \brief Decodes one report: `dims` are its sampled dimensions
/// (ascending, report_dims of them) and `index` its row, which must lie
/// below the padded order. Replaces out->entries with the report_dims
/// data-domain entries (dims[pos], Hadamard1EntryValue(pos)).
/// InvalidArgument on a shape mismatch.
Status Hadamard1Decode(const Hadamard1Params& params,
                       std::span<const std::uint32_t> dims,
                       std::uint32_t index, bool positive, UserReport* out);

}  // namespace protocol
}  // namespace hdldp

#endif  // HDLDP_PROTOCOL_HADAMARD_H_
