// Per-chip process-variation map: grid-point theta values plus the derived
// per-core maximum safe frequency (Eq. 1) and leakage multipliers (Eq. 2).
//
// Each core tile overlays a small block of grid points.  Following Eq. (1),
// a core's initial maximum frequency is
//
//     f_i = alpha * min over CP grid points of (1 / theta)
//
// i.e. the slowest grid point on the critical path limits the core.  The
// critical path is taken to traverse a fixed subset of the core's grid
// points (configurable count), matching the paper's S_CP(Ci).
//
// Leakage follows Eq. (2): each grid point contributes its nominal leakage
// scaled by exp(dVth(u,v) / (n * VT)) where VT = k*T/q is the thermal
// voltage.  We use the deviation form (dVth relative to nominal Vth) so the
// multiplier is 1.0 for a variation-free chip; the absolute form in the
// paper's Eq. (2) differs only by a constant folded into the nominal
// leakage.  Lower theta -> lower Vth -> faster but leakier, the canonical
// frequency/leakage variation trade-off the paper exploits.
#pragma once

#include <cmath>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace hayat {

/// Configuration mapping a theta field to core-level quantities.
struct VariationMapConfig {
  GridShape coreGrid;              ///< core tiling (e.g. 8x8)
  int pointsPerCoreEdge = 2;       ///< grid points per core edge (2 -> 2x2)
  Hertz nominalFrequency = 3.0e9;  ///< alpha in Eq. (1): f at theta == 1
  Volts nominalVth = 0.40;         ///< nominal threshold voltage
  double subthresholdSlopeFactor = 2.5;  ///< n in exp(dVth / (n VT))
  int criticalPathPoints = 3;      ///< |S_CP| grid points per core
};

/// One chip's realized variation: theta per grid point and derived
/// per-core frequency / threshold-voltage data.
class VariationMap {
 public:
  /// Builds the map from a sampled theta field (row-major over the point
  /// grid, which must be coreGrid scaled by pointsPerCoreEdge).  The RNG
  /// selects which of each core's grid points lie on its critical path.
  VariationMap(const VariationMapConfig& config, std::vector<double> theta,
               Rng& rng);

  int coreCount() const { return config_.coreGrid.count(); }
  const GridShape& coreGrid() const { return config_.coreGrid; }
  const GridShape& pointGrid() const { return pointGrid_; }

  /// theta value of a grid point (row-major point index).
  double theta(int pointIndex) const;

  /// Initial (year-0) maximum safe frequency of core i, Eq. (1).
  Hertz coreInitialFmax(int core) const;

  /// Threshold-voltage deviation of grid point p relative to nominal
  /// [V]: dVth = Vth_nominal * (theta - 1).
  Volts pointVthDelta(int pointIndex) const;

  /// Mean Vth deviation across core i's grid points [V].
  Volts coreVthDelta(int core) const;

  /// Eq. (2) leakage multiplier for core i at temperature T: the average
  /// over the core's grid points of exp(-dVth / (n * VT)).  The sign
  /// convention makes low-Vth (fast) cores leakier.
  double coreLeakageMultiplier(int core, Kelvin temperature) const;

  /// Grid points per core (pointsPerCoreEdge squared).
  int pointsPerCore() const { return pointsPerCore_; }

  /// Every core's grid-point Vth deltas in one flat array built at
  /// construction: entries [i * pointsPerCore(), (i + 1) * pointsPerCore())
  /// are pointVthDelta(p) for p in corePoints(i), in that order.  The
  /// leakage hot loops read this instead of the per-core index lists.
  const double* vthDeltaData() const { return vthDeltas_.data(); }

  /// Grid-point indices covered by core i (row-major point indices).
  const std::vector<int>& corePoints(int core) const;

  /// Grid-point indices on core i's critical path (subset of corePoints).
  const std::vector<int>& criticalPathPoints(int core) const;

  const VariationMapConfig& config() const { return config_; }

 private:
  VariationMapConfig config_;
  GridShape pointGrid_;
  std::vector<double> theta_;
  std::vector<std::vector<int>> corePoints_;
  std::vector<std::vector<int>> cpPoints_;
  std::vector<Hertz> fmax_;
  int pointsPerCore_ = 0;
  std::vector<double> vthDeltas_;
};

/// The Eq. (2) multiplier from one core's `count` grid-point Vth deltas:
/// the mean of exp(-dVth / (n * VT)) at temperature T.  The one
/// implementation behind VariationMap::coreLeakageMultiplier and the
/// LeakageModel kernel; unchecked (T > 0 and count >= 1 are the caller's).
inline double leakageMultiplier(const double* vthDeltas, int count,
                                double slopeFactor, Kelvin temperature) {
  const double vt = kBoltzmannOverCharge * temperature;
  const double nvt = slopeFactor * vt;
  double acc = 0.0;
  for (int k = 0; k < count; ++k) acc += std::exp(-vthDeltas[k] / nvt);
  return acc / static_cast<double>(count);
}

}  // namespace hayat
