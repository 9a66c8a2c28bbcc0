// User-side half of the high-dimensional LDP protocol.
//
// Given a total budget eps and a tuple of d values in the data domain
// (the paper fixes [-1, 1]), the client samples m dimensions uniformly
// without replacement, perturbs each sampled value with budget eps / m
// (so the composition over the reported dimensions satisfies eps-LDP),
// and emits (dimension, perturbed value) pairs in the mechanism's native
// output space (paper Section III-B / Section IV-B step 1).

#ifndef HDLDP_PROTOCOL_CLIENT_H_
#define HDLDP_PROTOCOL_CLIENT_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "mech/mechanism.h"
#include "protocol/report.h"

namespace hdldp {
namespace protocol {

/// Configuration of the client-side protocol.
struct ClientOptions {
  /// Collective privacy budget eps authorized by the user.
  double total_epsilon = 1.0;
  /// Number m of dimensions reported per user; 0 means all d dimensions.
  std::size_t report_dims = 0;
  /// Domain user data is normalized into before reporting.
  mech::Interval data_domain{-1.0, 1.0};
};

/// \brief Stateless per-user reporter; thread-compatible (all randomness
/// flows through the caller's Rng).
class Client {
 public:
  /// Validates the configuration against the mechanism (budget positive,
  /// m <= d, domains mappable) and precomputes the domain map.
  static Result<Client> Create(mech::MechanismPtr mechanism,
                               std::size_t num_dims,
                               const ClientOptions& options);

  /// Budget spent on each reported dimension: eps / m.
  double PerDimensionEpsilon() const { return per_dim_epsilon_; }

  /// Number of dimensions reported per user.
  std::size_t report_dims() const { return report_dims_; }

  /// Total number of dimensions d.
  std::size_t num_dims() const { return num_dims_; }

  /// Map from the data domain onto the mechanism's native input domain.
  const mech::DomainMap& domain_map() const { return domain_map_; }

  /// The mechanism in use.
  const mech::Mechanism& mechanism() const { return *mechanism_; }

  /// \brief The sampler plan prepared at Create() (mechanism at eps / m,
  /// every eps-only constant resolved). The engine's lane drivers
  /// dispatch on it directly.
  const mech::SamplerPlan& plan() const { return plan_; }

  /// \brief Builds one user's report. `tuple` must have d entries in the
  /// data domain (values are clamped defensively).
  Result<UserReport> Report(std::span<const double> tuple, Rng* rng) const;

  /// \brief Batched variant of Report(): `tuples` holds whole user tuples
  /// back to back (size must be a multiple of d) and the resulting
  /// (dimension, value) entries are appended to `*batch` (Clear() it to
  /// reuse across blocks).
  ///
  /// Consumes `rng` in exactly the order of the equivalent sequence of
  /// Report() calls and produces bit-identical values, but runs on the
  /// prepared sampler plan instead of per-value virtual Perturb calls, so
  /// no eps-dependent constant is recomputed anywhere in the loop. When
  /// every dimension is reported (m == d) the per-user dimension sampling
  /// is skipped entirely (it is a no-draw identity in that regime).
  Status ReportBatch(std::span<const double> tuples, Rng* rng,
                     protocol::ReportBatch* batch) const;

  /// \brief Densest batched variant, only valid when report_dims() ==
  /// num_dims(): perturbs whole tuples in place of (dimension, value)
  /// pairs. `out` must hold tuples.size() entries and receives, in (user,
  /// dimension) order, the perturbed value of every dimension — entry
  /// k corresponds to dimension k % d. Consumes `rng` exactly like the
  /// equivalent Report() sequence (dimension sampling draws nothing when
  /// m == d), so values are bit-identical to the scalar path. Feed the
  /// result to MeanAggregator::ConsumeDense.
  Status ReportDense(std::span<const double> tuples, Rng* rng,
                     std::span<double> out) const;

  /// \brief Streaming variant: invokes `sink(dimension, perturbed_value)`
  /// for each of the m sampled dimensions without materializing a report.
  /// `Sink` must be callable as void(std::uint32_t, double).
  template <typename Sink>
  void ReportTo(std::span<const double> tuple, Rng* rng, Sink&& sink) const {
    scratch_dims_.clear();
    rng->SampleWithoutReplacement(num_dims_, report_dims_, &scratch_dims_);
    for (const std::uint32_t j : scratch_dims_) {
      const double native = domain_map_.Forward(tuple[j]);
      sink(j, mech::PerturbOne(plan_, native, rng));
    }
  }

 private:
  Client(mech::MechanismPtr mechanism, std::size_t num_dims,
         std::size_t report_dims, double per_dim_epsilon,
         mech::DomainMap domain_map);

  mech::MechanismPtr mechanism_;
  std::size_t num_dims_;
  std::size_t report_dims_;
  double per_dim_epsilon_;
  mech::DomainMap domain_map_;
  // Prepared at construction; keeps every eps-only constant out of the
  // reporting hot loops.
  mech::SamplerPlan plan_;
  // Reused sampling/gather buffers; Client is thread-compatible, not
  // thread-safe, matching the one-client-per-worker usage of the pipeline.
  mutable std::vector<std::uint32_t> scratch_dims_;
  mutable std::vector<double> scratch_natives_;
};

}  // namespace protocol
}  // namespace hdldp

#endif  // HDLDP_PROTOCOL_CLIENT_H_
