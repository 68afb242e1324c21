// Leakage power model with temperature dependence and process variation.
//
// Section V: "the nominal subthreshold leakage of 1.18 W per core and
// remaining leakage of 0.019 W in power-gated mode. ... we apply a
// temperature dependent leakage as implemented in the McPAT simulator
// ... applied on the variation-dependent leakage power to obtain the
// total leakage power."
//
// The McPAT-style temperature dependence used here is the standard
// subthreshold form  I_leak ∝ T^2 exp(-Vth / (n k T / q)), normalized to
// 1.0 at the reference temperature so the paper's 1.18 W nominal applies
// at that reference.  The variation dependence comes from
// VariationMap::coreLeakageMultiplier (Eq. 2).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/units.hpp"
#include "variation/variation_map.hpp"

namespace hayat {

/// Parameters of the leakage model.
struct LeakageConfig {
  Watts nominalCoreLeakage = 1.18;   ///< per powered core @ reference T
  Watts gatedCoreLeakage = 0.019;    ///< per power-gated core
  Kelvin referenceTemperature = 330.0;  ///< where nominal leakage applies
  Volts nominalVth = 0.40;
  double subthresholdSlopeFactor = 2.5;  ///< n in the subthreshold slope
};

/// Per-core leakage as a function of power state, temperature, and the
/// chip's variation map.
class LeakageModel {
 public:
  /// The variation map must outlive the model.
  LeakageModel(LeakageConfig config, const VariationMap& variation);

  /// Temperature scaling factor, normalized to 1.0 at the reference
  /// temperature (monotonically increasing in T).
  double temperatureFactor(Kelvin temperature) const;

  /// Leakage of core i at temperature T when powered on.
  Watts coreLeakageOn(int core, Kelvin temperature) const;

  /// Leakage of core i when power-gated (dark).  Gated leakage is a fixed
  /// small constant: the sleep transistor decouples the core's varied
  /// logic from the rails, so neither variation nor die temperature
  /// meaningfully modulates it at this magnitude.
  Watts coreLeakageGated() const;

  /// Leakage of core i given its power state psi (Section III).
  Watts coreLeakage(int core, Kelvin temperature, bool poweredOn) const;

  /// Every core's leakage at once: out[i] = coreLeakage(i,
  /// temperatures[i], poweredOn[i] != 0), bitwise.  The hot-loop entry
  /// point of the epoch step and the coupled warm start: no per-core
  /// index or vector-of-vectors lookups.  `out` is resized to the core
  /// count (no allocation once sized).
  void leakageInto(const Vector& temperatures,
                   const std::vector<unsigned char>& poweredOn,
                   Vector& out) const;

  const LeakageConfig& config() const { return config_; }

  /// Appends the exact bytes every coreLeakage() output can depend on —
  /// the LeakageConfig fields, the variation map's subthreshold slope,
  /// and each core's grid-point Vth deltas — to `out`.  Two models with
  /// equal signatures return bitwise-equal leakage for every
  /// (core, temperature, state), which is what the trajectory memo of
  /// DESIGN.md §3.13 keys on.  Raw little-endian bytes, not readable.
  void signatureInto(std::string& out) const;

 private:
  /// T^2 exp(-Vth / (n k T / q)): the McPAT subthreshold shape.
  double unnormalized(Kelvin temperature) const {
    const double vt = kBoltzmannOverCharge * temperature;
    return temperature * temperature *
           std::exp(-config_.nominalVth /
                    (config_.subthresholdSlopeFactor * vt));
  }

  /// temperatureFactor without the argument check.
  double factor(Kelvin temperature) const {
    // Clamp the evaluation temperature: beyond ~400 K the subthreshold
    // model would feed a thermal runaway the package physics (melting
    // TIM, tripped PROCHOT) makes unreachable; the clamp keeps the
    // coupled leakage fixed point contractive under extreme transients.
    return unnormalized(std::min(temperature, 400.0)) / referenceUnnormalized_;
  }

  /// The leakage kernel: nominal * temperatureFactor * Eq. (2)
  /// multiplier of a powered core, in that order.  Unchecked — every
  /// public entry point validates, then lands here.
  Watts onLeakage(int core, Kelvin temperature) const {
    const int points = variation_->pointsPerCore();
    return config_.nominalCoreLeakage * factor(temperature) *
           leakageMultiplier(variation_->vthDeltaData() +
                                 static_cast<std::ptrdiff_t>(core) * points,
                             points,
                             variation_->config().subthresholdSlopeFactor,
                             temperature);
  }

  LeakageConfig config_;
  const VariationMap* variation_;
  /// unnormalized(referenceTemperature), computed once.
  double referenceUnnormalized_ = 1.0;
};

}  // namespace hayat
