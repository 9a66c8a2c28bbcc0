#include "mech/registry.h"

#include <string>

#include "mech/duchi.h"
#include "mech/hybrid.h"
#include "mech/laplace.h"
#include "mech/piecewise.h"
#include "mech/scdf.h"
#include "mech/square_wave.h"
#include "mech/staircase.h"

namespace hdldp {
namespace mech {

Result<MechanismPtr> MakeMechanism(std::string_view name) {
  if (name == "laplace") return MechanismPtr(new LaplaceMechanism());
  if (name == "scdf") return MechanismPtr(new ScdfMechanism());
  if (name == "staircase") return MechanismPtr(new StaircaseMechanism());
  if (name == "duchi") return MechanismPtr(new DuchiMechanism());
  if (name == "piecewise") return MechanismPtr(new PiecewiseMechanism());
  if (name == "hybrid") return MechanismPtr(new HybridMechanism());
  if (name == "square_wave") return MechanismPtr(new SquareWaveMechanism());
  return Status::NotFound("unknown mechanism: " + std::string(name));
}

std::vector<std::string_view> RegisteredMechanismNames() {
  return {"duchi",     "hybrid", "laplace",    "piecewise",
          "scdf",      "square_wave", "staircase"};
}

}  // namespace mech
}  // namespace hdldp
