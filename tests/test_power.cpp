// Tests for the power substrate: leakage (temperature scaling, variation
// coupling, power gating), dynamic power, and the coupled
// leakage-temperature fixed point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "power/dynamic_power.hpp"
#include "power/leakage.hpp"
#include "power/thermal_coupling.hpp"
#include "variation/variation_map.hpp"

namespace hayat {
namespace {

VariationMap uniformChip(double theta = 1.0, int edge = 4) {
  VariationMapConfig mc;
  mc.coreGrid = GridShape(edge, edge);
  mc.pointsPerCoreEdge = 2;
  Rng rng(1);
  return VariationMap(
      mc, std::vector<double>(static_cast<std::size_t>(edge * edge * 4), theta),
      rng);
}

// --- LeakageModel ---------------------------------------------------------

TEST(Leakage, NominalAtReferenceTemperature) {
  const VariationMap vm = uniformChip();
  const LeakageModel lm(LeakageConfig{}, vm);
  // Section V: 1.18 W nominal; theta == 1 removes variation.
  EXPECT_NEAR(lm.coreLeakageOn(0, 330.0), 1.18, 1e-9);
}

TEST(Leakage, TemperatureFactorMonotone) {
  const VariationMap vm = uniformChip();
  const LeakageModel lm(LeakageConfig{}, vm);
  double prev = 0.0;
  for (Kelvin t = 300.0; t <= 400.0; t += 10.0) {
    const double f = lm.temperatureFactor(t);
    EXPECT_GT(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(lm.temperatureFactor(330.0), 1.0);
}

TEST(Leakage, TemperatureFactorClampsAtRunawayLimit) {
  const VariationMap vm = uniformChip();
  const LeakageModel lm(LeakageConfig{}, vm);
  EXPECT_DOUBLE_EQ(lm.temperatureFactor(400.0), lm.temperatureFactor(500.0));
}

TEST(Leakage, RealisticDoublingRate) {
  // Subthreshold leakage should roughly double every 25-45 K in the
  // operating band — much faster and the coupled solve would run away,
  // much slower and the McPAT temperature dependence is lost.
  const VariationMap vm = uniformChip();
  const LeakageModel lm(LeakageConfig{}, vm);
  const double ratio = lm.temperatureFactor(360.0) / lm.temperatureFactor(330.0);
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.6);
}

TEST(Leakage, GatedLeakageIsPaperConstant) {
  const VariationMap vm = uniformChip();
  const LeakageModel lm(LeakageConfig{}, vm);
  EXPECT_DOUBLE_EQ(lm.coreLeakageGated(), 0.019);
  EXPECT_DOUBLE_EQ(lm.coreLeakage(3, 390.0, false), 0.019);
}

TEST(Leakage, PowerGatingSavesOrdersOfMagnitude) {
  const VariationMap vm = uniformChip();
  const LeakageModel lm(LeakageConfig{}, vm);
  EXPECT_GT(lm.coreLeakage(0, 350.0, true) / lm.coreLeakage(0, 350.0, false),
            30.0);
}

TEST(Leakage, FastSiliconLeaksMoreThroughVariation) {
  const VariationMap fast = uniformChip(0.92);
  const VariationMap slow = uniformChip(1.08);
  const LeakageModel lmFast(LeakageConfig{}, fast);
  const LeakageModel lmSlow(LeakageConfig{}, slow);
  EXPECT_GT(lmFast.coreLeakageOn(0, 330.0), 1.18);
  EXPECT_LT(lmSlow.coreLeakageOn(0, 330.0), 1.18);
}

/// The leakage formula as first written, per call, from the public
/// variation-map accessors: nominal * f(T) * Eq. (2) multiplier.
double referenceLeakageOn(const LeakageConfig& c, const VariationMap& vm,
                          int core, Kelvin temperature) {
  const double kB = 8.617333262e-5;
  auto unnormalized = [&](Kelvin x) {
    const double vt = kB * x;
    return x * x * std::exp(-c.nominalVth / (c.subthresholdSlopeFactor * vt));
  };
  const double factor = unnormalized(std::min(temperature, 400.0)) /
                        unnormalized(c.referenceTemperature);
  const double nvt = vm.config().subthresholdSlopeFactor * (kB * temperature);
  const std::vector<int>& pts = vm.corePoints(core);
  double acc = 0.0;
  for (int p : pts) acc += std::exp(-vm.pointVthDelta(p) / nvt);
  const double multiplier = acc / static_cast<double>(pts.size());
  return c.nominalCoreLeakage * factor * multiplier;
}

bool bitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Leakage, KernelBitwiseMatchesFormulaOnTemperatureGrid) {
  // A varied chip (distinct theta per grid point) and a non-default
  // config, so every term of the formula carries weight.
  VariationMapConfig mc;
  mc.coreGrid = GridShape(3, 3);
  mc.pointsPerCoreEdge = 2;
  std::vector<double> theta(36);
  for (std::size_t p = 0; p < theta.size(); ++p)
    theta[p] = 0.9 + 0.0057 * static_cast<double>((p * 7) % 36);
  Rng rng(3);
  const VariationMap vm(mc, theta, rng);
  LeakageConfig c;
  c.referenceTemperature = 331.5;
  const LeakageModel lm(c, vm);

  // Below, at and above the reference; up to, at and past the 400 K clamp.
  std::vector<Kelvin> temps = {250.0, 318.15, 331.5, 345.678, 368.15,
                               399.999, 400.0, 400.001, 450.0, 900.0};
  for (Kelvin t = 300.0; t < 420.0; t += 0.37) temps.push_back(t);

  const std::size_t n = static_cast<std::size_t>(vm.coreCount());
  std::vector<unsigned char> on(n);
  for (std::size_t i = 0; i < n; ++i) on[i] = i % 3 != 1;
  Vector batchTemps(n);
  Vector batch;
  for (const Kelvin t : temps) {
    for (int core = 0; core < vm.coreCount(); ++core) {
      const double ref = referenceLeakageOn(c, vm, core, t);
      EXPECT_TRUE(bitsEqual(lm.coreLeakageOn(core, t), ref))
          << "core " << core << " T " << t;
      EXPECT_TRUE(bitsEqual(lm.coreLeakage(core, t, true), ref));
    }
    // The batch entry point, each core at its own temperature.
    for (std::size_t i = 0; i < n; ++i)
      batchTemps[i] = t + 0.125 * static_cast<double>(i);
    lm.leakageInto(batchTemps, on, batch);
    for (int core = 0; core < vm.coreCount(); ++core) {
      const auto s = static_cast<std::size_t>(core);
      const double ref = on[s] != 0
                             ? referenceLeakageOn(c, vm, core, batchTemps[s])
                             : c.gatedCoreLeakage;
      EXPECT_TRUE(bitsEqual(batch[s], ref))
          << "leakageInto core " << core << " T " << batchTemps[s];
    }
  }
  EXPECT_TRUE(bitsEqual(lm.temperatureFactor(331.5), 1.0));
  EXPECT_TRUE(
      bitsEqual(lm.temperatureFactor(400.0), lm.temperatureFactor(900.0)));
}

TEST(Leakage, RejectsBadTemperature) {
  const VariationMap vm = uniformChip();
  const LeakageModel lm(LeakageConfig{}, vm);
  EXPECT_THROW(lm.temperatureFactor(0.0), Error);
  EXPECT_THROW(lm.coreLeakageOn(0, -5.0), Error);
}

// --- DynamicPowerModel ----------------------------------------------------

TEST(DynamicPower, LinearInFrequency) {
  const DynamicPowerModel dp(DynamicPowerConfig{});
  EXPECT_DOUBLE_EQ(dp.threadPower(4.0, 3.0e9), 4.0);
  EXPECT_DOUBLE_EQ(dp.threadPower(4.0, 1.5e9), 2.0);
  EXPECT_DOUBLE_EQ(dp.threadPower(4.0, 0.0), 0.0);
}

TEST(DynamicPower, EffectiveCapacitanceConsistent) {
  const DynamicPowerModel dp(DynamicPowerConfig{});
  const double c = dp.effectiveCapacitance(4.0);
  // P = C V^2 f must reproduce the trace power at nominal frequency.
  EXPECT_NEAR(c * 1.13 * 1.13 * 3.0e9, 4.0, 1e-9);
}

TEST(DynamicPower, RejectsNegative) {
  const DynamicPowerModel dp(DynamicPowerConfig{});
  EXPECT_THROW(dp.threadPower(-1.0, 1e9), Error);
  EXPECT_THROW(dp.threadPower(1.0, -1e9), Error);
}

// --- Coupled fixed point ---------------------------------------------------

ThermalModel smallThermal(int edge = 4) {
  ThermalConfig tc;
  tc.floorplan = FloorPlan(GridShape(edge, edge), 1.70e-3, 1.75e-3);
  return ThermalModel(tc);
}

TEST(Coupling, ConvergesAndIsSelfConsistent) {
  const VariationMap vm = uniformChip();
  const ThermalModel thermal = smallThermal();
  const LeakageModel leakage(LeakageConfig{}, vm);
  Vector dyn(16, 3.0);
  std::vector<bool> on(16, true);
  const CoupledOperatingPoint op =
      solveCoupledSteadyState(thermal, leakage, dyn, on);
  ASSERT_TRUE(op.converged);
  // Self-consistency: re-evaluating leakage at the converged temps and
  // re-solving reproduces the temps.
  Vector power(16);
  for (int i = 0; i < 16; ++i) {
    const auto s = static_cast<std::size_t>(i);
    power[s] = dyn[s] + leakage.coreLeakage(i, op.coreTemperatures[s], true);
    // The under-relaxed iterate reports power from the previous sweep;
    // allow the corresponding slack.
    EXPECT_NEAR(power[s], op.corePower[s], 1e-3);
  }
  const Vector direct = thermal.steadyStateCoreTemperatures(power);
  EXPECT_LT(maxAbsDiff(direct, op.coreTemperatures), 0.05);
}

TEST(Coupling, HotterThanLeakageFreeSolve) {
  const VariationMap vm = uniformChip();
  const ThermalModel thermal = smallThermal();
  const LeakageModel leakage(LeakageConfig{}, vm);
  Vector dyn(16, 3.0);
  std::vector<bool> on(16, true);
  const CoupledOperatingPoint op =
      solveCoupledSteadyState(thermal, leakage, dyn, on);
  const Vector noLeak = thermal.steadyStateCoreTemperatures(dyn);
  for (int i = 0; i < 16; ++i)
    EXPECT_GT(op.coreTemperatures[static_cast<std::size_t>(i)],
              noLeak[static_cast<std::size_t>(i)]);
}

TEST(Coupling, DarkCoresStayCool) {
  const VariationMap vm = uniformChip();
  const ThermalModel thermal = smallThermal();
  const LeakageModel leakage(LeakageConfig{}, vm);
  Vector dyn(16, 0.0);
  std::vector<bool> on(16, false);
  dyn[5] = 5.0;
  on[5] = true;
  const CoupledOperatingPoint op =
      solveCoupledSteadyState(thermal, leakage, dyn, on);
  ASSERT_TRUE(op.converged);
  // Dark cores burn only the 19 mW gated leakage.
  EXPECT_NEAR(op.leakagePower[0], 0.019, 1e-12);
  EXPECT_GT(op.leakagePower[5], 0.5);
  // And the lone active core is the hottest spot.
  for (int i = 0; i < 16; ++i)
    EXPECT_LE(op.coreTemperatures[static_cast<std::size_t>(i)],
              op.coreTemperatures[5]);
}

TEST(Coupling, HighOccupancyStillConverges) {
  // The 75%-occupancy regime that once tripped the runaway must converge.
  const VariationMap vm = uniformChip(0.9);  // leaky fast silicon
  const ThermalModel thermal = smallThermal();
  const LeakageModel leakage(LeakageConfig{}, vm);
  Vector dyn(16, 5.0);
  std::vector<bool> on(16, true);
  const CoupledOperatingPoint op =
      solveCoupledSteadyState(thermal, leakage, dyn, on, 1e-3, 200);
  EXPECT_TRUE(op.converged);
  for (double t : op.coreTemperatures) EXPECT_LT(t, 450.0);
}

TEST(Coupling, RejectsSizeMismatch) {
  const VariationMap vm = uniformChip();
  const ThermalModel thermal = smallThermal();
  const LeakageModel leakage(LeakageConfig{}, vm);
  EXPECT_THROW(solveCoupledSteadyState(thermal, leakage, Vector(3, 0.0),
                                       std::vector<bool>(16, true)),
               Error);
}

}  // namespace
}  // namespace hayat
