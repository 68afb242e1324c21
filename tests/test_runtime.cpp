// Tests for the runtime substrate: Mapping invariants (Eq. 5), the
// thermal-profile predictor ([27]-style superposition), the health
// estimator, the DTM controller, and the epoch simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "aging/health.hpp"
#include "common/alloc_counter.hpp"
#include "common/error.hpp"
#include "core/hayat_policy.hpp"
#include "core/system.hpp"
#include "power/thermal_coupling.hpp"
#include "runtime/dtm.hpp"
#include "runtime/epoch.hpp"
#include "runtime/health_estimator.hpp"
#include "runtime/mapping.hpp"
#include "runtime/noc.hpp"
#include "runtime/thermal_predictor.hpp"
#include "workload/generator.hpp"

namespace hayat {
namespace {

SystemConfig smallConfig() {
  SystemConfig sc;
  sc.population.coreGrid = GridShape(4, 4);
  sc.pathsPerCore = 3;
  sc.elementsPerPath = 12;
  return sc;
}

WorkloadMix smallMix(int budget = 8, std::uint64_t seed = 42) {
  Rng rng(seed);
  return ParsecLikeSuite::makeMix(rng, budget, 3.0e9);
}

// --- Mapping ---------------------------------------------------------------

TEST(Mapping, AssignAndQuery) {
  Mapping m(4);
  m.assign({0, 1}, 2, 2.0e9);
  EXPECT_TRUE(m.coreBusy(2));
  EXPECT_FALSE(m.coreBusy(0));
  EXPECT_EQ(m.assignedCount(), 1);
  ASSERT_TRUE(m.onCore(2).has_value());
  EXPECT_EQ(m.onCore(2)->ref.thread, 1);
  EXPECT_DOUBLE_EQ(m.onCore(2)->frequency, 2.0e9);
  EXPECT_DOUBLE_EQ(m.onCore(2)->requiredFrequency, 2.0e9);
}

TEST(Mapping, Eq5OneThreadPerCore) {
  Mapping m(4);
  m.assign({0, 0}, 1, 1e9);
  EXPECT_THROW(m.assign({0, 1}, 1, 1e9), Error);
}

TEST(Mapping, UnassignIsIdempotent) {
  Mapping m(4);
  m.assign({0, 0}, 1, 1e9);
  m.unassign(1);
  EXPECT_EQ(m.assignedCount(), 0);
  m.unassign(1);  // no-op
  EXPECT_EQ(m.assignedCount(), 0);
}

TEST(Mapping, MigrateMovesThread) {
  Mapping m(4);
  m.assign({2, 3}, 0, 1.5e9);
  m.migrate(0, 3);
  EXPECT_FALSE(m.coreBusy(0));
  ASSERT_TRUE(m.onCore(3).has_value());
  EXPECT_EQ(m.onCore(3)->ref.app, 2);
  EXPECT_EQ(m.onCore(3)->core, 3);
  EXPECT_THROW(m.migrate(3, 3), Error);
  EXPECT_THROW(m.migrate(1, 2), Error);  // nothing on core 1
}

TEST(Mapping, ThrottleAndRestore) {
  Mapping m(2);
  m.assign({0, 0}, 0, 2.0e9);
  m.setFrequency(0, 1.0e9);
  EXPECT_DOUBLE_EQ(m.onCore(0)->frequency, 1.0e9);
  EXPECT_DOUBLE_EQ(m.onCore(0)->requiredFrequency, 2.0e9);
  m.restoreFrequency(0);
  EXPECT_DOUBLE_EQ(m.onCore(0)->frequency, 2.0e9);
}

TEST(Mapping, ExplicitRequiredFrequency) {
  Mapping m(2);
  m.assign({0, 0}, 0, 1.5e9, 2.5e9);  // core can't reach the requirement
  EXPECT_DOUBLE_EQ(m.onCore(0)->requiredFrequency, 2.5e9);
}

TEST(Mapping, DarkCoreMapReflectsAssignment) {
  Mapping m(4);
  m.assign({0, 0}, 1, 1e9);
  m.assign({0, 1}, 3, 1e9);
  const DarkCoreMap dcm = m.toDarkCoreMap(GridShape(2, 2));
  EXPECT_TRUE(dcm.isOn(1));
  EXPECT_TRUE(dcm.isOn(3));
  EXPECT_EQ(dcm.onCount(), 2);
}

TEST(Mapping, DynamicPowerScalesWithFrequency) {
  const WorkloadMix mix = smallMix();
  Mapping m(16);
  const ThreadProfile& t0 = mix.applications[0].thread(0);
  m.assign({0, 0}, 5, 1.5e9);
  const Vector p = m.averageDynamicPower(mix, 3.0e9);
  EXPECT_NEAR(p[5], t0.averagePower() * 0.5, 1e-9);
  for (int i = 0; i < 16; ++i)
    if (i != 5) {
      EXPECT_DOUBLE_EQ(p[static_cast<std::size_t>(i)], 0.0);
    }
}

TEST(Mapping, PhasedPowerFollowsTrace) {
  const WorkloadMix mix = smallMix();
  Mapping m(16);
  ASSERT_GE(mix.applications[0].maxThreads(), 2);
  m.assign({0, 0}, 2, 3.0e9);
  m.assign({0, 1}, 5, 1.5e9);
  const ThreadProfile& prof = mix.applications[0].thread(0);
  CoreSlots slots;
  m.slotsInto(mix, 3.0e9, slots);
  ASSERT_EQ(slots.profile[2], &prof);
  EXPECT_EQ(slots.profile[2]->phaseAt(0.0).dynamicPower * slots.powerScale[2],
            prof.phaseAt(0.0).dynamicPower * (3.0e9 / 3.0e9));
  const ThreadProfile& half = mix.applications[0].thread(1);
  EXPECT_EQ(slots.profile[5]->phaseAt(0.0).dynamicPower * slots.powerScale[5],
            half.phaseAt(0.0).dynamicPower * (1.5e9 / 3.0e9));
  EXPECT_EQ(slots.frequency[5], 1.5e9);
  for (int i = 0; i < 16; ++i) {
    if (i == 2 || i == 5) continue;
    EXPECT_EQ(slots.busy[i], 0);
    EXPECT_EQ(slots.powerScale[i], 0.0);
    EXPECT_EQ(slots.profile[i], nullptr);
  }
}

// --- NoC model ----------------------------------------------------------------

TEST(Noc, ZeroTrafficWhenThreadsColocatedOrAlone) {
  const GridShape grid(4, 4);
  const NocModel noc(grid);
  const WorkloadMix mix = smallMix(8, 5);
  Mapping m(16);
  m.assign({0, 0}, 3, 1e9);  // one thread only: no pairs
  EXPECT_DOUBLE_EQ(noc.hopTraffic(m, mix), 0.0);
  EXPECT_DOUBLE_EQ(noc.averageHopDistance(m, mix), 0.0);
}

TEST(Noc, AdjacentCheaperThanScattered) {
  const GridShape grid(4, 4);
  const NocModel noc(grid);
  const WorkloadMix mix = smallMix(8, 5);
  ASSERT_GE(mix.applications[0].maxThreads(), 2);
  Mapping close(16), far(16);
  close.assign({0, 0}, 0, 1e9);
  close.assign({0, 1}, 1, 1e9);  // 1 hop
  far.assign({0, 0}, 0, 1e9);
  far.assign({0, 1}, 15, 1e9);  // 6 hops
  EXPECT_LT(noc.hopTraffic(close, mix), noc.hopTraffic(far, mix));
  EXPECT_DOUBLE_EQ(noc.averageHopDistance(close, mix), 1.0);
  EXPECT_DOUBLE_EQ(noc.averageHopDistance(far, mix), 6.0);
}

TEST(Noc, DifferentApplicationsDoNotCommunicate) {
  const GridShape grid(4, 4);
  const NocModel noc(grid);
  WorkloadMix mix = smallMix(8, 5);
  ASSERT_GE(mix.applications.size(), 2u);
  Mapping m(16);
  m.assign({0, 0}, 0, 1e9);
  m.assign({1, 0}, 15, 1e9);  // other app, far away
  EXPECT_DOUBLE_EQ(noc.hopTraffic(m, mix), 0.0);
}

TEST(Noc, MemoryBoundPairsAreHeavier) {
  const ThreadProfile cpuBound({{1.0, 4.0, 0.7, 1.9}}, 2e9);
  const ThreadProfile memBound({{1.0, 2.0, 0.3, 0.5}}, 1e9);
  EXPECT_GT(NocModel::pairIntensity(memBound, memBound),
            NocModel::pairIntensity(cpuBound, cpuBound));
  EXPECT_DOUBLE_EQ(NocModel::pairIntensity(cpuBound, memBound),
                   NocModel::pairIntensity(memBound, cpuBound));
}

TEST(Noc, PowerScalesWithEnergyPerFlitHop) {
  const GridShape grid(2, 2);
  NocConfig cfg;
  cfg.energyPerFlitHop = 2.0e-10;
  const NocModel a(grid, NocConfig{});
  const NocModel b(grid, cfg);
  const WorkloadMix mix = smallMix(8, 5);
  Mapping m(4);
  m.assign({0, 0}, 0, 1e9);
  m.assign({0, 1}, 3, 1e9);
  EXPECT_NEAR(b.communicationPower(m, mix),
              2.0 * a.communicationPower(m, mix), 1e-15);
}

// --- chooseParallelism -------------------------------------------------------

TEST(Parallelism, KeepsMaxWhenBudgetAllows) {
  const WorkloadMix mix = smallMix(8);
  const auto k = chooseParallelism(mix, 64);
  for (std::size_t j = 0; j < k.size(); ++j)
    EXPECT_EQ(k[j], mix.applications[j].maxThreads());
}

TEST(Parallelism, ShrinksToBudget) {
  const WorkloadMix mix = smallMix(32, 7);
  const int budget = mix.totalMinThreads() +
                     (mix.totalMaxThreads() - mix.totalMinThreads()) / 2;
  const auto k = chooseParallelism(mix, budget);
  int total = 0;
  for (std::size_t j = 0; j < k.size(); ++j) {
    EXPECT_GE(k[j], mix.applications[j].minThreads());
    EXPECT_LE(k[j], mix.applications[j].maxThreads());
    total += k[j];
  }
  EXPECT_LE(total, budget);
}

TEST(Parallelism, ThrowsWhenInfeasible) {
  const WorkloadMix mix = smallMix(32, 7);
  if (mix.totalMinThreads() > 1) {
    EXPECT_THROW(chooseParallelism(mix, mix.totalMinThreads() - 1), Error);
  }
}

TEST(Parallelism, RunnableThreadsCarryScaledFmin) {
  const WorkloadMix mix = smallMix(16, 9);
  const auto kMax = chooseParallelism(mix, 64);
  const auto threads = runnableThreads(mix, kMax);
  int expected = 0;
  for (int kj : kMax) expected += kj;
  EXPECT_EQ(static_cast<int>(threads.size()), expected);
  for (const RunnableThread& t : threads) {
    EXPECT_GT(t.minFrequency, 0.0);
    EXPECT_GT(t.averagePower, 0.0);
    EXPECT_GT(t.averageDuty, 0.0);
  }
}

// --- ThermalPredictor ---------------------------------------------------------

class PredictorFixture : public ::testing::Test {
 protected:
  PredictorFixture() : system_(System::create(smallConfig(), 2015)) {}
  System system_;
};

TEST_F(PredictorFixture, MatchesCoupledGroundTruth) {
  const ThermalPredictor predictor(system_.thermal(), system_.leakage(), 5);
  const int n = system_.chip().coreCount();
  Vector dyn(static_cast<std::size_t>(n), 0.0);
  std::vector<bool> on(static_cast<std::size_t>(n), false);
  for (int i = 0; i < n; i += 2) {
    dyn[static_cast<std::size_t>(i)] = 3.0;
    on[static_cast<std::size_t>(i)] = true;
  }
  const Vector predicted = predictor.predict(dyn, on);
  const CoupledOperatingPoint truth = solveCoupledSteadyState(
      system_.thermal(), system_.leakage(), dyn, on);
  // Superposition + a few leakage sweeps should be within ~1 K of the
  // fully converged coupled solve.
  EXPECT_LT(maxAbsDiff(predicted, truth.coreTemperatures), 1.0);
}

TEST_F(PredictorFixture, CandidateDeltaMatchesFullPrediction) {
  const ThermalPredictor predictor(system_.thermal(), system_.leakage());
  const int n = system_.chip().coreCount();
  Vector dyn(static_cast<std::size_t>(n), 0.0);
  std::vector<bool> on(static_cast<std::size_t>(n), false);
  dyn[0] = 4.0;
  on[0] = true;
  const auto baseline = predictor.makeBaseline(dyn, on);
  const Vector incremental = predictor.predictWithCandidate(baseline, 5, 3.5);

  Vector dyn2 = dyn;
  std::vector<bool> on2 = on;
  dyn2[5] = 3.5;
  on2[5] = true;
  const Vector full = predictor.predict(dyn2, on2);
  // The incremental path skips the final leakage re-sweep; allow ~1.5 K.
  EXPECT_LT(maxAbsDiff(incremental, full), 1.5);
}

TEST_F(PredictorFixture, CandidateOnlyWarms) {
  const ThermalPredictor predictor(system_.thermal(), system_.leakage());
  const int n = system_.chip().coreCount();
  const auto baseline = predictor.makeBaseline(
      Vector(static_cast<std::size_t>(n), 0.0),
      std::vector<bool>(static_cast<std::size_t>(n), false));
  const Vector with = predictor.predictWithCandidate(baseline, 7, 5.0);
  for (int i = 0; i < n; ++i)
    EXPECT_GE(with[static_cast<std::size_t>(i)],
              baseline.temperatures[static_cast<std::size_t>(i)]);
  // Candidate core warms the most.
  const auto hottestDelta = static_cast<std::size_t>(7);
  for (int i = 0; i < n; ++i) {
    if (i == 7) continue;
    EXPECT_LT(with[static_cast<std::size_t>(i)] -
                  baseline.temperatures[static_cast<std::size_t>(i)],
              with[hottestDelta] - baseline.temperatures[hottestDelta]);
  }
}

TEST_F(PredictorFixture, FusedCandidateStatsBitwiseMatchUnfused) {
  const ThermalPredictor predictor(system_.thermal(), system_.leakage());
  const int n = system_.chip().coreCount();
  Vector dyn(static_cast<std::size_t>(n), 0.0);
  std::vector<bool> on(static_cast<std::size_t>(n), false);
  dyn[0] = 4.0;
  on[0] = true;
  dyn[3] = 2.5;
  on[3] = true;
  const auto baseline = predictor.makeBaseline(dyn, on);
  for (int cand : {1, 5, n - 1}) {
    const double addedPower = 3.5 + 0.25 * cand;
    const double peakPower = addedPower * 1.4;
    // The unfused sequence the policy loop used to run: two incremental
    // predictions plus the tSum / tMax reductions.
    Vector tNext;
    Vector tPeak;
    predictor.predictWithCandidateInto(baseline, cand, addedPower, tNext);
    predictor.predictWithCandidateInto(baseline, cand, peakPower, tPeak);
    double tMax = 0.0;
    double tSum = 0.0;
    for (double temp : tNext) tSum += temp;
    for (double temp : tPeak) tMax = std::max(tMax, temp);

    const ThermalPredictor::CandidateStats stats =
        predictor.predictCandidateStats(baseline, cand, addedPower, peakPower);
    // sumNext is closed-form since §3.11 (baseline sum + delta * column
    // sum) — algebraically equal to the elementwise chain but summed in
    // a different association, so it gets a tight relative tolerance
    // instead of a bitwise pin.
    EXPECT_NEAR(stats.sumNext, tSum, 1e-9 * std::abs(tSum));
    EXPECT_EQ(stats.maxPeak, tMax);  // bitwise: max is order-independent
    EXPECT_EQ(stats.candidateNext, tNext[static_cast<std::size_t>(cand)]);
  }
}

// --- HealthEstimator ------------------------------------------------------------

TEST(DutyPolicyResolve, Modes) {
  EXPECT_DOUBLE_EQ(resolveDuty(DutyPolicy::Generic, 0.7), 0.5);
  EXPECT_DOUBLE_EQ(resolveDuty(DutyPolicy::Known, 0.7), 0.7);
  EXPECT_DOUBLE_EQ(resolveDuty(DutyPolicy::WorstCase, 0.7), 0.925);
  // Idle cores never age, whatever the mode.
  EXPECT_DOUBLE_EQ(resolveDuty(DutyPolicy::Generic, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(resolveDuty(DutyPolicy::WorstCase, 0.0), 0.0);
}

TEST_F(PredictorFixture, EstimatorMatchesGroundTruthAging) {
  const Chip& chip = system_.chip();
  const HealthEstimator estimator(chip.agingTable(), DutyPolicy::Known);
  CoreAgingState truth;
  CoreAgingState copy;
  // After a varied history, the estimator's one-epoch forecast must match
  // the actual table-driven advance.
  truth.advance(chip.agingTable(), 350.0, 0.5, 1.0);
  copy = truth;
  const double predicted =
      estimator.estimateNextHealth(copy, 360.0, 0.7, 0.25);
  truth.advance(chip.agingTable(), 360.0, 0.7, 0.25);
  EXPECT_NEAR(predicted, truth.health(), 1e-9);
}

TEST_F(PredictorFixture, EstimatorOrderings) {
  const Chip& chip = system_.chip();
  const HealthEstimator estimator(chip.agingTable(), DutyPolicy::Known);
  const CoreAgingState fresh;
  const double cool = estimator.estimateNextHealth(fresh, 330.0, 0.5, 1.0);
  const double hot = estimator.estimateNextHealth(fresh, 390.0, 0.5, 1.0);
  EXPECT_GT(cool, hot);
  const double lowDuty = estimator.estimateNextHealth(fresh, 360.0, 0.2, 1.0);
  const double highDuty = estimator.estimateNextHealth(fresh, 360.0, 0.9, 1.0);
  EXPECT_GT(lowDuty, highDuty);
  // WorstCase mode is the most pessimistic.
  const HealthEstimator worst(chip.agingTable(), DutyPolicy::WorstCase);
  EXPECT_LE(worst.estimateNextHealth(fresh, 360.0, 0.5, 1.0),
            estimator.estimateNextHealth(fresh, 360.0, 0.5, 1.0));
}

TEST_F(PredictorFixture, EstimatorIdleCoreKeepsHealth) {
  const HealthEstimator estimator(system_.chip().agingTable());
  const CoreAgingState s = CoreAgingState::fromDelayFactor(1.08);
  EXPECT_DOUBLE_EQ(estimator.estimateNextHealth(s, 380.0, 0.0, 1.0),
                   s.health());
}

TEST_F(PredictorFixture, EstimatorWholeMap) {
  const Chip& chip = system_.chip();
  const HealthEstimator estimator(chip.agingTable());
  const int n = chip.coreCount();
  const std::vector<double> temps(static_cast<std::size_t>(n), 350.0);
  std::vector<double> duty(static_cast<std::size_t>(n), 0.0);
  duty[3] = 0.8;
  const auto next = estimator.estimateNextHealthMap(chip.health(), temps,
                                                    duty, 0.5);
  for (int i = 0; i < n; ++i) {
    if (i == 3)
      EXPECT_LT(next[static_cast<std::size_t>(i)], 1.0);
    else
      EXPECT_DOUBLE_EQ(next[static_cast<std::size_t>(i)], 1.0);
  }
}

// --- DTM --------------------------------------------------------------------

class DtmFixture : public ::testing::Test {
 protected:
  DtmFixture() : health_({3e9, 3e9, 3e9, 2e9}) {}
  HealthMap health_;
};

TEST_F(DtmFixture, MigratesHotToColdestEligible) {
  DtmManager dtm;
  Mapping m(4);
  m.assign({0, 0}, 0, 2.5e9);
  // Core 0 hot; cores 1-3 idle. Coldest is core 3 but it is too slow
  // (fmax 2 GHz < required 2.5 GHz) -> target must be core 2.
  const Vector temps = {370.0, 356.0, 350.0, 340.0};
  const int actions = dtm.enforce(m, temps, health_);
  EXPECT_EQ(actions, 1);
  EXPECT_FALSE(m.coreBusy(0));
  EXPECT_TRUE(m.coreBusy(2));
  EXPECT_EQ(dtm.stats().migrations, 1);
}

TEST_F(DtmFixture, ThrottlesWhenNoTargetEligible) {
  DtmManager dtm;
  Mapping m(4);
  m.assign({0, 0}, 0, 2.5e9);
  // All idle cores are within the 10 K margin of Tsafe -> no migration.
  const Vector temps = {370.0, 365.0, 364.0, 366.0};
  dtm.enforce(m, temps, health_);
  EXPECT_TRUE(m.coreBusy(0));
  EXPECT_LT(m.onCore(0)->frequency, 2.5e9);
  EXPECT_EQ(dtm.stats().throttles, 1);
}

TEST_F(DtmFixture, RestoresAfterCooling) {
  DtmManager dtm;
  Mapping m(4);
  m.assign({0, 0}, 0, 2.5e9);
  dtm.enforce(m, {370.0, 365.0, 364.0, 366.0}, health_);  // throttle
  ASSERT_LT(m.onCore(0)->frequency, 2.5e9);
  dtm.enforce(m, {340.0, 330.0, 330.0, 330.0}, health_);  // cooled
  EXPECT_DOUBLE_EQ(m.onCore(0)->frequency, 2.5e9);
  EXPECT_EQ(dtm.stats().restores, 1);
}

TEST_F(DtmFixture, NoActionBelowTsafe) {
  DtmManager dtm;
  Mapping m(4);
  m.assign({0, 0}, 0, 2.0e9);
  EXPECT_EQ(dtm.enforce(m, {360.0, 330.0, 330.0, 330.0}, health_), 0);
  EXPECT_EQ(dtm.stats().events(), 0);
}

TEST_F(DtmFixture, HottestMigratesFirst) {
  DtmManager dtm;
  Mapping m(4);
  m.assign({0, 0}, 0, 1.5e9);
  m.assign({0, 1}, 1, 1.5e9);
  // Both hot, one cold target (core 3, fmax 2 GHz >= 1.5 GHz).
  // Hotter core 1 must win the target.
  const Vector temps = {369.0, 373.0, 367.0, 340.0};
  dtm.enforce(m, temps, health_);
  ASSERT_TRUE(m.coreBusy(3));
  EXPECT_EQ(m.onCore(3)->ref.thread, 1);
}

TEST_F(DtmFixture, MigrationCooldownForcesThrottle) {
  DtmConfig cfg;
  cfg.migrationCooldownChecks = 100;  // effectively permanent for the test
  DtmManager dtm(cfg);
  Mapping m(4);
  m.assign({0, 0}, 0, 1.5e9);
  const Vector hot0 = {370.0, 330.0, 330.0, 330.0};
  dtm.enforce(m, hot0, health_);  // first emergency: migrates (to core 1)
  EXPECT_EQ(dtm.stats().migrations, 1);
  ASSERT_TRUE(m.coreBusy(1));
  // Immediate second emergency on the new core: the thread is inside its
  // cooldown, so the DTM must throttle instead of migrating again.
  const Vector hot1 = {330.0, 370.0, 330.0, 330.0};
  dtm.enforce(m, hot1, health_);
  EXPECT_EQ(dtm.stats().migrations, 1);
  EXPECT_EQ(dtm.stats().throttles, 1);
  EXPECT_TRUE(m.coreBusy(1));
  EXPECT_LT(m.onCore(1)->frequency, 1.5e9);
}

TEST_F(DtmFixture, CooldownExpiresAfterEnoughChecks) {
  DtmConfig cfg;
  cfg.migrationCooldownChecks = 3;
  DtmManager dtm(cfg);
  Mapping m(4);
  m.assign({0, 0}, 0, 1.5e9);
  dtm.enforce(m, {370.0, 330.0, 330.0, 330.0}, health_);  // migrate 0 -> 1
  ASSERT_EQ(dtm.stats().migrations, 1);
  // Two quiet checks let the cooldown lapse.
  dtm.enforce(m, {330.0, 340.0, 330.0, 330.0}, health_);
  dtm.enforce(m, {330.0, 340.0, 330.0, 330.0}, health_);
  dtm.enforce(m, {330.0, 370.0, 330.0, 330.0}, health_);  // migrate again
  EXPECT_EQ(dtm.stats().migrations, 2);
}

TEST_F(DtmFixture, ThrottleRespectsFloor) {
  DtmConfig cfg;
  cfg.minimumFrequency = 1.0e9;
  DtmManager dtm(cfg);
  Mapping m(1);
  m.assign({0, 0}, 0, 1.2e9);
  HealthMap h1({3e9});
  dtm.enforce(m, {380.0}, h1);
  EXPECT_DOUBLE_EQ(m.onCore(0)->frequency, 1.0e9);
  // At the floor, a further emergency cannot throttle more.
  const long throttlesBefore = dtm.stats().throttles;
  dtm.enforce(m, {380.0}, h1);
  EXPECT_EQ(dtm.stats().throttles, throttlesBefore);
}

// --- EpochSimulator --------------------------------------------------------------

class EpochFixture : public ::testing::Test {
 protected:
  EpochFixture() : system_(System::create(smallConfig(), 77)) {}

  Mapping spreadMapping(const WorkloadMix& mix) {
    const auto k = chooseParallelism(mix, 8);
    const auto threads = runnableThreads(mix, k);
    Mapping m(16);
    const int order[] = {0, 2, 5, 7, 8, 10, 13, 15, 1, 3, 4, 6, 9, 11, 12, 14};
    int idx = 0;
    for (const RunnableThread& t : threads) {
      const int core = order[idx++ % 16];
      m.assign(t.ref, core,
               std::min(t.minFrequency, system_.chip().currentFmax(core)),
               t.minFrequency);
    }
    return m;
  }

  System system_;
};

TEST_F(EpochFixture, ResultShapesAndBounds) {
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.5;
  const EpochSimulator sim(system_.chip(), system_.thermal(),
                           system_.leakage(), ec);
  const EpochResult r = sim.run(spreadMapping(mix), mix);
  const int n = system_.chip().coreCount();
  EXPECT_EQ(static_cast<int>(r.averageTemperature.size()), n);
  EXPECT_EQ(r.totalSteps, static_cast<int>(std::lround(0.5 / 6.6e-3)));
  for (int i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(i);
    EXPECT_GT(r.averageTemperature[s], 300.0);
    EXPECT_LE(r.averageTemperature[s], r.peakTemperature[s] + 1e-9);
    EXPECT_GE(r.duty[s], 0.0);
    EXPECT_LE(r.duty[s], 1.0);
  }
  EXPECT_GE(r.chipPeak, r.chipTimeAverage);
}

TEST_F(EpochFixture, BusyCoresAccumulateDutyIdleCoresDoNot) {
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.3;
  const EpochSimulator sim(system_.chip(), system_.thermal(),
                           system_.leakage(), ec);
  const Mapping m = spreadMapping(mix);
  const EpochResult r = sim.run(m, mix);
  for (int i = 0; i < 16; ++i) {
    const auto s = static_cast<std::size_t>(i);
    // DTM may move threads, so check against the *final* mapping.
    if (r.finalMapping.coreBusy(i)) {
      EXPECT_GT(r.duty[s] + 1e-9, 0.0);
    }
  }
  // At least one idle core must exist and have zero duty (8 threads, 16
  // cores, and DTM only swaps one-for-one).
  bool sawIdleZero = false;
  for (int i = 0; i < 16; ++i)
    if (!r.finalMapping.coreBusy(i) &&
        r.duty[static_cast<std::size_t>(i)] == 0.0)
      sawIdleZero = true;
  EXPECT_TRUE(sawIdleZero);
}

TEST_F(EpochFixture, BusyCoresRunHotterThanIdle) {
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.3;
  const EpochSimulator sim(system_.chip(), system_.thermal(),
                           system_.leakage(), ec);
  const Mapping m = spreadMapping(mix);
  const EpochResult r = sim.run(m, mix);
  double busyAvg = 0.0, idleAvg = 0.0;
  int busy = 0, idle = 0;
  for (int i = 0; i < 16; ++i) {
    const auto s = static_cast<std::size_t>(i);
    if (m.coreBusy(i)) {
      busyAvg += r.averageTemperature[s];
      ++busy;
    } else {
      idleAvg += r.averageTemperature[s];
      ++idle;
    }
  }
  ASSERT_GT(busy, 0);
  ASSERT_GT(idle, 0);
  EXPECT_GT(busyAvg / busy, idleAvg / idle);
}

TEST_F(EpochFixture, ThroughputAccounting) {
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.2;
  const EpochSimulator sim(system_.chip(), system_.thermal(),
                           system_.leakage(), ec);
  const EpochResult r = sim.run(spreadMapping(mix), mix);
  EXPECT_GT(r.requiredIps, 0.0);
  EXPECT_GT(r.achievedIps, 0.0);
  EXPECT_LE(r.throughputRatio(), 1.0 + 1e-9);
  EXPECT_GT(r.throughputRatio(), 0.3);
}

TEST_F(EpochFixture, ThermalSensorNoiseKeepsTrueAccounting) {
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.2;
  EpochConfig noisy = ec;
  noisy.thermalSensorNoise.gaussianSigma = 1.0;
  const EpochSimulator clean(system_.chip(), system_.thermal(),
                             system_.leakage(), ec);
  const EpochSimulator withNoise(system_.chip(), system_.thermal(),
                                 system_.leakage(), noisy);
  const Mapping m = spreadMapping(mix);
  const EpochResult a = clean.run(m, mix);
  const EpochResult b = withNoise.run(m, mix);
  // Reported temperatures are ground truth in both cases; with no DTM
  // activity the trajectories must match exactly.
  if (a.dtm.events() == 0 && b.dtm.events() == 0) {
    EXPECT_LT(maxAbsDiff(a.averageTemperature, b.averageTemperature), 1e-9);
  }
  // And the noisy run still satisfies basic bounds.
  for (double t : b.peakTemperature) EXPECT_LT(t, 500.0);
}

TEST_F(EpochFixture, SteadyStateStepLoopIsAllocationFree) {
  if (!allocCounterActive()) {
    GTEST_SKIP() << "allocation counter compiled out (sanitizer build)";
  }
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.3;
  // Keep DTM quiescent: a triggered migration legitimately allocates
  // (mapping churn), but the steady-state contract is about the step
  // loop itself.
  ec.dtm.tsafe = 1000.0;
  const EpochSimulator sim(system_.chip(), system_.thermal(),
                           system_.leakage(), ec);
  const Mapping m = spreadMapping(mix);
  const std::uint64_t before = epochStepLoopAllocs();
  const EpochResult r = sim.run(m, mix);
  EXPECT_GT(r.totalSteps, 1);
  EXPECT_EQ(epochStepLoopAllocs() - before, 0u)
      << "steady-state epoch step loop performed heap allocations";
}

TEST_F(EpochFixture, HealthAdvanceAllIsAllocationFree) {
  if (!allocCounterActive()) {
    GTEST_SKIP() << "allocation counter compiled out (sanitizer build)";
  }
  const int n = system_.chip().coreCount();
  std::vector<double> temps(static_cast<std::size_t>(n));
  std::vector<double> duty(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    temps[static_cast<std::size_t>(i)] = 330.0 + 4.0 * i;
    duty[static_cast<std::size_t>(i)] = i % 3 == 0 ? 0.0 : 0.4 + 0.03 * i;
  }
  HealthMap& hm = system_.chip().health();
  const std::uint64_t before = healthAdvanceAllocs();
  for (int e = 0; e < 4; ++e)
    hm.advanceAll(system_.chip().agingTable(), temps.data(), duty.data(),
                  0.25);
  EXPECT_EQ(healthAdvanceAllocs() - before, 0u)
      << "batched health advance performed heap allocations";
  for (int i = 0; i < n; ++i) {
    if (duty[static_cast<std::size_t>(i)] > 0.0) {
      EXPECT_GT(hm.state(i).delayFactor(), 1.0);
    } else {
      EXPECT_DOUBLE_EQ(hm.state(i).delayFactor(), 1.0);
    }
  }
}

TEST_F(EpochFixture, HayatPlacementLoopIsAllocationFree) {
  if (!allocCounterActive()) {
    GTEST_SKIP() << "allocation counter compiled out (sanitizer build)";
  }
  const WorkloadMix mix = smallMix(8, 5);
  HayatPolicy policy;
  PolicyContext ctx;
  ctx.chip = &system_.chip();
  ctx.thermal = &system_.thermal();
  ctx.leakage = &system_.leakage();
  ctx.mix = &mix;
  (void)policy.map(ctx);  // warm-up: sizes the reusable scratch buffers
  const std::uint64_t before = hayatPlacementLoopAllocs();
  (void)policy.map(ctx);
  EXPECT_EQ(hayatPlacementLoopAllocs() - before, 0u)
      << "warm Hayat candidate loop performed heap allocations";
}

TEST_F(EpochFixture, DeterministicRuns) {
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.2;
  const EpochSimulator sim(system_.chip(), system_.thermal(),
                           system_.leakage(), ec);
  const Mapping m = spreadMapping(mix);
  const EpochResult a = sim.run(m, mix);
  const EpochResult b = sim.run(m, mix);
  EXPECT_EQ(a.dtm.events(), b.dtm.events());
  EXPECT_DOUBLE_EQ(a.chipPeak, b.chipPeak);
  EXPECT_LT(maxAbsDiff(a.averageTemperature, b.averageTemperature), 1e-12);
}

// --- EpochResult goldens ----------------------------------------------------

/// Every field of an EpochResult, doubles at %.17g, in declaration order.
std::string epochResultText(const EpochResult& r) {
  std::string out;
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g,", v);
    out += buf;
  };
  for (double v : r.averageTemperature) num(v);
  out += '|';
  for (double v : r.peakTemperature) num(v);
  out += '|';
  for (double v : r.duty) num(v);
  out += '|';
  num(r.chipPeak);
  num(r.chipTimeAverage);
  num(static_cast<double>(r.dtm.migrations));
  num(static_cast<double>(r.dtm.throttles));
  num(static_cast<double>(r.dtm.restores));
  num(r.throttledSteps);
  num(r.totalSteps);
  num(r.achievedIps);
  num(r.requiredIps);
  out += '|';
  for (int c = 0; c < r.finalMapping.coreCount(); ++c) {
    const auto& slot = r.finalMapping.onCore(c);
    if (!slot.has_value()) {
      out += "-;";
      continue;
    }
    num(slot->ref.app);
    num(slot->ref.thread);
    num(slot->core);
    num(slot->frequency);
    num(slot->requiredFrequency);
    out += ';';
  }
  return out;
}

/// FNV-1a 64 of the text above: a compact, platform-independent pin.
std::uint64_t epochResultHash(const EpochResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char ch : epochResultText(r)) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

SystemConfig gridConfig(int edge) {
  SystemConfig sc;
  sc.population.coreGrid = GridShape(edge, edge);
  sc.pathsPerCore = 3;
  sc.elementsPerPath = 12;
  return sc;
}

Mapping scatterMapping(const WorkloadMix& mix, const Chip& chip,
                       int onBudget) {
  const auto k = chooseParallelism(mix, onBudget);
  const auto threads = runnableThreads(mix, k);
  const int n = chip.coreCount();
  Mapping m(n);
  int idx = 0;
  for (const RunnableThread& t : threads) {
    const int core =
        static_cast<int>((static_cast<long>(idx) * n) /
                         static_cast<long>(threads.size()));
    m.assign(t.ref, core, std::min(t.minFrequency, chip.currentFmax(core)),
             t.minFrequency);
    ++idx;
  }
  return m;
}

// Hashes recorded before the step loop was restructured (flat per-window
// state, one leakage kernel, DTM quiet ticks): any drift in a single bit
// of any field of these windows fails here.
TEST(EpochGolden, DtmActiveWindow) {
  clearTransientMemoForTest();
  System system = System::create(gridConfig(4), 77);
  const WorkloadMix mix = smallMix(10, 5);
  EpochConfig ec;
  ec.window = 0.5;
  // Lowered Tsafe and a narrow cold margin: every DTM action kind fires.
  ec.dtm.tsafe = 338.0;
  ec.dtm.coldMargin = 2.0;
  const EpochSimulator sim(system.chip(), system.thermal(), system.leakage(),
                           ec);
  const EpochResult r = sim.run(scatterMapping(mix, system.chip(), 10), mix);
  EXPECT_GT(r.dtm.migrations, 0);
  EXPECT_GT(r.dtm.throttles, 0);
  EXPECT_GT(r.dtm.restores, 0);
  EXPECT_EQ(epochResultHash(r), 0xc0d18b62ad1f573bULL) << epochResultText(r);
}

TEST(EpochGolden, NoisySensorWindow) {
  clearTransientMemoForTest();
  System system = System::create(gridConfig(4), 77);
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.5;
  ec.dtm.tsafe = 340.0;
  ec.thermalSensorNoise.gaussianSigma = 1.5;
  ec.thermalSensorNoise.quantization = 0.25;
  const EpochSimulator sim(system.chip(), system.thermal(), system.leakage(),
                           ec);
  const EpochResult r = sim.run(scatterMapping(mix, system.chip(), 8), mix);
  EXPECT_GT(r.dtm.events(), 0);
  EXPECT_EQ(epochResultHash(r), 0x2cc6e99326de2e39ULL) << epochResultText(r);
}

TEST(EpochGolden, HalfDarkWindow) {
  clearTransientMemoForTest();
  System system = System::create(gridConfig(8), 77);
  const WorkloadMix mix = smallMix(32, 5);
  const EpochSimulator sim(system.chip(), system.thermal(), system.leakage());
  const EpochResult r = sim.run(scatterMapping(mix, system.chip(), 32), mix);
  EXPECT_EQ(r.finalMapping.assignedCount(), 32);
  EXPECT_EQ(epochResultHash(r), 0x91c288ac6d5c3be1ULL) << epochResultText(r);
}

// --- §3.13 fast paths: early exit + trajectory memo ------------------------

/// Sets one environment flag for the lifetime of a scope.
class ScopedEnvFlag {
 public:
  ScopedEnvFlag(const char* name, bool on) : name_(name) {
    setenv(name, on ? "1" : "0", 1);
  }
  ~ScopedEnvFlag() { unsetenv(name_); }
  ScopedEnvFlag(const ScopedEnvFlag&) = delete;
  ScopedEnvFlag& operator=(const ScopedEnvFlag&) = delete;

 private:
  const char* name_;
};

void expectEpochResultsBitwiseEqual(const EpochResult& a, const EpochResult& b,
                                    const char* label) {
  ASSERT_EQ(a.averageTemperature.size(), b.averageTemperature.size()) << label;
  for (std::size_t i = 0; i < a.averageTemperature.size(); ++i) {
    EXPECT_EQ(a.averageTemperature[i], b.averageTemperature[i])
        << label << " avg core " << i;
    EXPECT_EQ(a.peakTemperature[i], b.peakTemperature[i])
        << label << " peak core " << i;
    EXPECT_EQ(a.duty[i], b.duty[i]) << label << " duty core " << i;
  }
  EXPECT_EQ(a.chipPeak, b.chipPeak) << label;
  EXPECT_EQ(a.chipTimeAverage, b.chipTimeAverage) << label;
  EXPECT_EQ(a.dtm.migrations, b.dtm.migrations) << label;
  EXPECT_EQ(a.dtm.throttles, b.dtm.throttles) << label;
  EXPECT_EQ(a.dtm.restores, b.dtm.restores) << label;
  EXPECT_EQ(a.throttledSteps, b.throttledSteps) << label;
  EXPECT_EQ(a.totalSteps, b.totalSteps) << label;
  EXPECT_EQ(a.achievedIps, b.achievedIps) << label;
  EXPECT_EQ(a.requiredIps, b.requiredIps) << label;
  ASSERT_EQ(a.finalMapping.coreCount(), b.finalMapping.coreCount()) << label;
  for (int c = 0; c < a.finalMapping.coreCount(); ++c) {
    const auto& sa = a.finalMapping.onCore(c);
    const auto& sb = b.finalMapping.onCore(c);
    ASSERT_EQ(sa.has_value(), sb.has_value()) << label << " core " << c;
    if (!sa.has_value()) continue;
    EXPECT_EQ(sa->ref.app, sb->ref.app) << label << " core " << c;
    EXPECT_EQ(sa->ref.thread, sb->ref.thread) << label << " core " << c;
    EXPECT_EQ(sa->frequency, sb->frequency) << label << " core " << c;
    EXPECT_EQ(sa->requiredFrequency, sb->requiredFrequency)
        << label << " core " << c;
  }
}

TEST(EpochEarlyExit, BitwiseMatchesFullWindowAcrossSizes) {
  for (const int edge : {4, 8, 16}) {
    System system = System::create(gridConfig(edge), 77);
    const WorkloadMix mix = smallMix(std::max(4, edge * edge / 2), 5);
    EpochConfig ec;
    ec.window = 0.3;
    const EpochSimulator sim(system.chip(), system.thermal(),
                             system.leakage(), ec);
    const Mapping m = scatterMapping(mix, system.chip(), edge * edge / 2);
    const ScopedEnvFlag noMemo("HAYAT_NO_THERMAL_MEMO", true);
    EpochResult reference{Vector{}, Vector{}, {}, 0, 0, {}, 0, 0, 0, 0,
                          Mapping(1)};
    {
      const ScopedEnvFlag noExit("HAYAT_NO_THERMAL_EARLYEXIT", true);
      reference = sim.run(m, mix);
    }
    const EpochResult fast = sim.run(m, mix);
    expectEpochResultsBitwiseEqual(reference, fast,
                                   edge == 4   ? "4x4"
                                   : edge == 8 ? "8x8"
                                               : "16x16");
  }
}

TEST(EpochEarlyExit, BitwiseMatchesFullWindowUnderDenseTwin) {
  // The dense reference backend must agree with itself across the
  // early-exit twin too (the detector's fused compare also has a dense
  // implementation).
  ThermalModel::clearSharedTransientCacheForTest();
  const ScopedEnvFlag dense("HAYAT_DENSE_SOLVER", true);
  System system = System::create(gridConfig(4), 77);
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.3;
  const EpochSimulator sim(system.chip(), system.thermal(), system.leakage(),
                           ec);
  const Mapping m = scatterMapping(mix, system.chip(), 8);
  const ScopedEnvFlag noMemo("HAYAT_NO_THERMAL_MEMO", true);
  EpochResult reference{Vector{}, Vector{}, {}, 0, 0, {}, 0, 0, 0, 0,
                        Mapping(1)};
  {
    const ScopedEnvFlag noExit("HAYAT_NO_THERMAL_EARLYEXIT", true);
    reference = sim.run(m, mix);
  }
  const EpochResult fast = sim.run(m, mix);
  expectEpochResultsBitwiseEqual(reference, fast, "dense 4x4");
  ThermalModel::clearSharedTransientCacheForTest();
}

/// A mix whose threads hold one constant phase forever — the steady
/// workload the fixed-point early exit is designed for.
WorkloadMix steadyMix(int threads) {
  std::vector<ThreadProfile> profiles;
  for (int t = 0; t < threads; ++t)
    profiles.emplace_back(
        std::vector<ThreadPhase>{{1.0, 3.0 + 0.25 * t, 0.5, 1.0}}, 2.0e9);
  WorkloadMix mix;
  mix.applications.emplace_back("steady", std::move(profiles), 1);
  return mix;
}

TEST(EpochEarlyExit, SteadyWindowSkipsSteps) {
  clearTransientMemoForTest();
  System system = System::create(gridConfig(4), 77);
  const WorkloadMix mix = steadyMix(4);
  EpochConfig ec;  // default 2 s window: ~303 steps, plenty to lock
  const EpochSimulator sim(system.chip(), system.thermal(), system.leakage(),
                           ec);
  const Mapping m = scatterMapping(mix, system.chip(), 4);
  const std::uint64_t before = epochStepsSkipped();
  const EpochResult r = sim.run(m, mix);
  EXPECT_EQ(r.dtm.events(), 0);
  EXPECT_GT(epochStepsSkipped() - before, 0u)
      << "steady constant-power window reached no bitwise fixed point";
}

TEST(EpochMemo, TwinIdentityAndHitCounting) {
  clearTransientMemoForTest();
  System system = System::create(gridConfig(4), 77);
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.2;
  const EpochSimulator sim(system.chip(), system.thermal(), system.leakage(),
                           ec);
  const Mapping m = scatterMapping(mix, system.chip(), 8);
  EpochResult reference{Vector{}, Vector{}, {}, 0, 0, {}, 0, 0, 0, 0,
                        Mapping(1)};
  {
    const ScopedEnvFlag noMemo("HAYAT_NO_THERMAL_MEMO", true);
    reference = sim.run(m, mix);
  }
  const std::uint64_t misses0 = transientMemoMisses();
  const std::uint64_t hits0 = transientMemoHits();
  const EpochResult first = sim.run(m, mix);   // miss: simulates + stores
  const EpochResult second = sim.run(m, mix);  // hit: replays the store
  EXPECT_EQ(transientMemoMisses() - misses0, 1u);
  EXPECT_EQ(transientMemoHits() - hits0, 1u);
  expectEpochResultsBitwiseEqual(reference, first, "memo miss");
  expectEpochResultsBitwiseEqual(reference, second, "memo hit");
}

TEST(EpochMemo, HitPathAllocationBound) {
  if (!allocCounterActive()) {
    GTEST_SKIP() << "allocation counter compiled out (sanitizer build)";
  }
  clearTransientMemoForTest();
  System system = System::create(gridConfig(4), 77);
  const WorkloadMix mix = smallMix(8, 5);
  EpochConfig ec;
  ec.window = 0.2;
  const EpochSimulator sim(system.chip(), system.thermal(), system.leakage(),
                           ec);
  const Mapping m = scatterMapping(mix, system.chip(), 8);
  (void)sim.run(m, mix);  // miss: stores the window, warms the key buffer
  const std::uint64_t hits0 = transientMemoHits();
  const std::uint64_t before = heapAllocationCount();
  (void)sim.run(m, mix);  // hit
  const std::uint64_t hitAllocs = heapAllocationCount() - before;
  ASSERT_EQ(transientMemoHits() - hits0, 1u);
  // The hit replays a stored result: the only allowed allocations are
  // the returned EpochResult's own vectors (no solves, no warm start).
  EXPECT_LE(hitAllocs, 16u)
      << "memo hit path allocated " << hitAllocs << " times";
}

TEST(EpochMemo, ConcurrentRunsShareMemoSafely) {
  clearTransientMemoForTest();
  System system = System::create(gridConfig(4), 77);
  const WorkloadMix mixA = smallMix(8, 5);
  const WorkloadMix mixB = smallMix(8, 9);
  EpochConfig ec;
  ec.window = 0.2;
  const EpochSimulator sim(system.chip(), system.thermal(), system.leakage(),
                           ec);
  const Mapping mA = scatterMapping(mixA, system.chip(), 8);
  const Mapping mB = scatterMapping(mixB, system.chip(), 8);
  EpochResult refA{Vector{}, Vector{}, {}, 0, 0, {}, 0, 0, 0, 0, Mapping(1)};
  EpochResult refB{Vector{}, Vector{}, {}, 0, 0, {}, 0, 0, 0, 0, Mapping(1)};
  {
    const ScopedEnvFlag noMemo("HAYAT_NO_THERMAL_MEMO", true);
    refA = sim.run(mA, mixA);
    refB = sim.run(mB, mixB);
  }
  std::vector<std::thread> workers;
  std::vector<EpochResult> results;
  std::mutex resultsMutex;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (int iter = 0; iter < 3; ++iter) {
        const bool useA = (w + iter) % 2 == 0;
        EpochResult r = sim.run(useA ? mA : mB, useA ? mixA : mixB);
        std::lock_guard<std::mutex> lock(resultsMutex);
        results.push_back(std::move(r));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (const EpochResult& r : results) {
    const bool isA =
        r.averageTemperature.size() == refA.averageTemperature.size() &&
        r.achievedIps == refA.achievedIps;
    expectEpochResultsBitwiseEqual(isA ? refA : refB, r, "concurrent");
  }
}

}  // namespace
}  // namespace hayat
