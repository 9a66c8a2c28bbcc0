// Name-based mechanism factory.
//
// The evaluation harness, examples and tests select mechanisms by the
// stable names reported by Mechanism::Name():
//   "laplace", "scdf", "staircase", "duchi", "piecewise", "hybrid",
//   "square_wave".

#ifndef HDLDP_MECH_REGISTRY_H_
#define HDLDP_MECH_REGISTRY_H_

#include <string_view>
#include <vector>

#include "mech/mechanism.h"

namespace hdldp {
namespace mech {

/// \brief Instantiates the mechanism registered under `name`.
///
/// Returns NotFound for unknown names. Mechanisms are stateless, so the
/// returned shared_ptr may be cached and shared across threads.
Result<MechanismPtr> MakeMechanism(std::string_view name);

/// \brief All registered mechanism names, sorted.
std::vector<std::string_view> RegisteredMechanismNames();

}  // namespace mech
}  // namespace hdldp

#endif  // HDLDP_MECH_REGISTRY_H_
