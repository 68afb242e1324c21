#include "power/thermal_coupling.hpp"

#include <utility>

#include "common/error.hpp"

namespace hayat {

CoupledOperatingPoint solveCoupledSteadyState(const ThermalModel& thermal,
                                              const LeakageModel& leakage,
                                              const Vector& dynamicPower,
                                              const std::vector<bool>& poweredOn,
                                              double toleranceKelvin,
                                              int maxIterations) {
  const int n = thermal.coreCount();
  HAYAT_REQUIRE(static_cast<int>(dynamicPower.size()) == n,
                "dynamic power vector size mismatch");
  HAYAT_REQUIRE(static_cast<int>(poweredOn.size()) == n,
                "power state vector size mismatch");
  HAYAT_REQUIRE(toleranceKelvin > 0.0, "tolerance must be positive");

  CoupledOperatingPoint op;
  op.coreTemperatures.assign(static_cast<std::size_t>(n),
                             thermal.config().ambient);
  op.corePower.assign(static_cast<std::size_t>(n), 0.0);
  op.leakagePower.assign(static_cast<std::size_t>(n), 0.0);
  const std::vector<unsigned char> on(poweredOn.begin(), poweredOn.end());
  Vector next;
  Vector scratch;

  for (int iter = 0; iter < maxIterations; ++iter) {
    leakage.leakageInto(op.coreTemperatures, on, op.leakagePower);
    for (std::size_t s = 0; s < op.corePower.size(); ++s)
      op.corePower[s] = dynamicPower[s] + op.leakagePower[s];
    // Solve the full network once and keep the node vector: the last
    // iteration's solve *is* steadyState(op.corePower), which the epoch
    // warm start would otherwise recompute.
    thermal.steadyStateInto(op.corePower, op.nodeTemperatures, scratch);
    thermal.coreTemperaturesInto(op.nodeTemperatures, next);
    const double delta = maxAbsDiff(next, op.coreTemperatures);
    // Mild under-relaxation keeps the iteration contractive even for
    // chips whose leakiest cores sit near the thermal-runaway gain limit.
    for (std::size_t i = 0; i < next.size(); ++i)
      next[i] = 0.5 * (next[i] + op.coreTemperatures[i]);
    std::swap(op.coreTemperatures, next);
    op.iterations = iter + 1;
    if (delta < toleranceKelvin) {
      op.converged = true;
      break;
    }
  }
  return op;
}

}  // namespace hayat
