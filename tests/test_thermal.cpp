// Tests for the thermal substrate: RC network structure, steady-state
// physics (energy balance, superposition, symmetry), the influence
// matrix, and the implicit-Euler transient solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sparse.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/thermal_model.hpp"
#include "thermal/transient.hpp"

namespace hayat {
namespace {

ThermalConfig paperConfig(int rows = 8, int cols = 8) {
  ThermalConfig tc;
  tc.floorplan = FloorPlan(GridShape(rows, cols), 1.70e-3, 1.75e-3);
  return tc;
}

// --- Structure -----------------------------------------------------------

TEST(ThermalModel, NodeLayout) {
  const ThermalModel m(paperConfig());
  EXPECT_EQ(m.coreCount(), 64);
  EXPECT_EQ(m.nodeCount(), 192);
}

TEST(ThermalModel, ConductanceSymmetric) {
  const ThermalModel m(paperConfig(3, 3));
  const Matrix& g = m.conductance();
  for (int i = 0; i < m.nodeCount(); ++i)
    for (int j = 0; j < m.nodeCount(); ++j)
      EXPECT_NEAR(g(i, j), g(j, i), 1e-15);
}

TEST(ThermalModel, OffDiagonalsNonPositive) {
  const ThermalModel m(paperConfig(3, 3));
  const Matrix& g = m.conductance();
  for (int i = 0; i < m.nodeCount(); ++i)
    for (int j = 0; j < m.nodeCount(); ++j)
      if (i != j) {
        EXPECT_LE(g(i, j), 0.0);
      }
}

TEST(ThermalModel, CapacitancesPositive) {
  const ThermalModel m(paperConfig(2, 2));
  for (double c : m.capacitance()) EXPECT_GT(c, 0.0);
}

// --- Steady state --------------------------------------------------------

TEST(ThermalSteady, ZeroPowerRelaxesToAmbient) {
  const ThermalModel m(paperConfig(4, 4));
  const Vector temps = m.steadyState(Vector(16, 0.0));
  for (double t : temps) EXPECT_NEAR(t, m.config().ambient, 1e-9);
}

TEST(ThermalSteady, EnergyBalance) {
  // In steady state, total injected power equals total convected power:
  // sum over sink nodes of g_conv * (T_sink - ambient) == sum(P).
  const ThermalModel m(paperConfig(4, 4));
  Vector power(16, 0.0);
  power[5] = 10.0;
  power[9] = 4.0;
  const Vector temps = m.steadyState(power);
  const double gConvPerTile =
      1.0 / (m.config().convectionResistance * m.coreCount());
  double convected = 0.0;
  for (int i = 0; i < m.coreCount(); ++i)
    convected += gConvPerTile *
                 (temps[static_cast<std::size_t>(2 * m.coreCount() + i)] -
                  m.config().ambient);
  EXPECT_NEAR(convected, 14.0, 1e-8);
}

TEST(ThermalSteady, HeatSourceIsHottest) {
  const ThermalModel m(paperConfig(5, 5));
  Vector power(25, 0.0);
  const int center = 12;
  power[static_cast<std::size_t>(center)] = 8.0;
  const Vector temps = m.steadyStateCoreTemperatures(power);
  for (int i = 0; i < 25; ++i) {
    if (i == center) continue;
    EXPECT_LT(temps[static_cast<std::size_t>(i)],
              temps[static_cast<std::size_t>(center)]);
  }
}

TEST(ThermalSteady, MonotoneDecayWithDistance) {
  const ThermalModel m(paperConfig(1, 8));
  Vector power(8, 0.0);
  power[0] = 6.0;
  const Vector temps = m.steadyStateCoreTemperatures(power);
  for (int i = 1; i < 8; ++i)
    EXPECT_LT(temps[static_cast<std::size_t>(i)],
              temps[static_cast<std::size_t>(i - 1)]);
}

TEST(ThermalSteady, SuperpositionHolds) {
  // The network is linear: T(P1 + P2) - amb == (T(P1) - amb) + (T(P2) - amb).
  const ThermalModel m(paperConfig(4, 4));
  Vector p1(16, 0.0), p2(16, 0.0), p12(16, 0.0);
  p1[3] = 5.0;
  p2[10] = 7.0;
  for (int i = 0; i < 16; ++i)
    p12[static_cast<std::size_t>(i)] = p1[static_cast<std::size_t>(i)] +
                                       p2[static_cast<std::size_t>(i)];
  const Vector t1 = m.steadyStateCoreTemperatures(p1);
  const Vector t2 = m.steadyStateCoreTemperatures(p2);
  const Vector t12 = m.steadyStateCoreTemperatures(p12);
  const double amb = m.config().ambient;
  for (int i = 0; i < 16; ++i) {
    const auto s = static_cast<std::size_t>(i);
    EXPECT_NEAR(t12[s] - amb, (t1[s] - amb) + (t2[s] - amb), 1e-9);
  }
}

TEST(ThermalSteady, SymmetricChipSymmetricResponse) {
  // Center heat on a symmetric odd grid: mirrored tiles read equal temps.
  const ThermalModel m(paperConfig(5, 5));
  Vector power(25, 0.0);
  power[12] = 5.0;  // center
  const Vector t = m.steadyStateCoreTemperatures(power);
  const GridShape g(5, 5);
  EXPECT_NEAR(t[static_cast<std::size_t>(g.indexOf({2, 0}))],
              t[static_cast<std::size_t>(g.indexOf({2, 4}))], 1e-9);
  EXPECT_NEAR(t[static_cast<std::size_t>(g.indexOf({0, 2}))],
              t[static_cast<std::size_t>(g.indexOf({4, 2}))], 1e-9);
}

TEST(ThermalSteady, PaperPowerBudgetLandsInBand) {
  // ~32 threads of ~4.5 W total per core (dyn + leak) at 50% dark must
  // produce the 320-350 K band of Fig. 2.
  const ThermalModel m(paperConfig());
  Vector power(64, 0.0);
  for (int i = 0; i < 64; i += 2) power[static_cast<std::size_t>(i)] = 4.5;
  const Vector t = m.steadyStateCoreTemperatures(power);
  for (int i = 0; i < 64; ++i) {
    EXPECT_GT(t[static_cast<std::size_t>(i)], 318.0);
    EXPECT_LT(t[static_cast<std::size_t>(i)], 355.0);
  }
}

TEST(ThermalSteady, RejectsNegativePower) {
  const ThermalModel m(paperConfig(2, 2));
  EXPECT_THROW(m.steadyState({1.0, -1.0, 0.0, 0.0}), Error);
  EXPECT_THROW(m.steadyState({1.0, 1.0}), Error);
}

// --- Influence matrix ----------------------------------------------------

TEST(Influence, MatchesDirectSolve) {
  const ThermalModel m(paperConfig(4, 4));
  const Matrix& k = m.coreInfluenceMatrix();
  Vector power(16, 0.0);
  power[2] = 3.0;
  power[11] = 6.0;
  const Vector direct = m.steadyStateCoreTemperatures(power);
  for (int i = 0; i < 16; ++i) {
    double predicted = m.config().ambient;
    for (int j = 0; j < 16; ++j)
      predicted += k(i, j) * power[static_cast<std::size_t>(j)];
    EXPECT_NEAR(predicted, direct[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(Influence, SelfInfluenceDominates) {
  const ThermalModel m(paperConfig(4, 4));
  const Matrix& k = m.coreInfluenceMatrix();
  for (int i = 0; i < 16; ++i)
    for (int j = 0; j < 16; ++j)
      if (i != j) {
        EXPECT_GT(k(i, i), k(i, j));
      }
}

TEST(Influence, AllEntriesPositive) {
  // Heat anywhere warms everything (connected network).
  const ThermalModel m(paperConfig(3, 3));
  const Matrix& k = m.coreInfluenceMatrix();
  for (int i = 0; i < 9; ++i)
    for (int j = 0; j < 9; ++j) EXPECT_GT(k(i, j), 0.0);
}

TEST(Influence, Reciprocity) {
  // A symmetric conductance network has a symmetric resistance matrix.
  const ThermalModel m(paperConfig(3, 4));
  const Matrix& k = m.coreInfluenceMatrix();
  for (int i = 0; i < 12; ++i)
    for (int j = 0; j < 12; ++j) EXPECT_NEAR(k(i, j), k(j, i), 1e-10);
}

// --- Transient -----------------------------------------------------------

TEST(Transient, ConvergesToSteadyState) {
  const ThermalModel m(paperConfig(4, 4));
  Vector power(16, 0.0);
  power[5] = 6.0;
  const TransientSolver solver(m, 0.01);
  Vector state(static_cast<std::size_t>(m.nodeCount()), m.config().ambient);
  // Sink time constants are tens of seconds — run long enough.
  state = solver.run(std::move(state), power, 40000);
  const Vector steady = m.steadyState(power);
  EXPECT_LT(maxAbsDiff(state, steady), 0.05);
}

TEST(Transient, SteadyStateIsFixedPoint) {
  const ThermalModel m(paperConfig(4, 4));
  Vector power(16, 2.0);
  const TransientSolver solver(m, 6.6e-3);
  const Vector steady = m.steadyState(power);
  const Vector next = solver.step(steady, power);
  EXPECT_LT(maxAbsDiff(next, steady), 1e-9);
}

TEST(Transient, MonotoneHeatingFromAmbient) {
  const ThermalModel m(paperConfig(2, 2));
  Vector power(4, 3.0);
  const TransientSolver solver(m, 1e-3);
  Vector state(static_cast<std::size_t>(m.nodeCount()), m.config().ambient);
  double prev = state[0];
  for (int s = 0; s < 50; ++s) {
    state = solver.step(state, power);
    EXPECT_GE(state[0], prev - 1e-12);
    prev = state[0];
  }
  EXPECT_GT(prev, m.config().ambient + 0.5);
}

TEST(Transient, DieRespondsFasterThanSink) {
  const ThermalModel m(paperConfig(2, 2));
  Vector power(4, 5.0);
  const TransientSolver solver(m, 6.6e-3);
  Vector state(static_cast<std::size_t>(m.nodeCount()), m.config().ambient);
  state = solver.run(std::move(state), power, 100);  // 0.66 s
  const Vector steady = m.steadyState(power);
  const double dieProgress =
      (state[0] - m.config().ambient) / (steady[0] - m.config().ambient);
  const auto sinkIdx = static_cast<std::size_t>(2 * m.coreCount());
  const double sinkProgress = (state[sinkIdx] - m.config().ambient) /
                              (steady[sinkIdx] - m.config().ambient);
  EXPECT_GT(dieProgress, sinkProgress);
}

TEST(Transient, LargeStepStillStable) {
  // Implicit Euler is A-stable: even absurdly large steps stay bounded
  // and land on the steady state.
  const ThermalModel m(paperConfig(2, 2));
  Vector power(4, 4.0);
  const TransientSolver solver(m, 1000.0);
  Vector state(static_cast<std::size_t>(m.nodeCount()), m.config().ambient);
  state = solver.run(std::move(state), power, 100);
  const Vector steady = m.steadyState(power);
  EXPECT_LT(maxAbsDiff(state, steady), 0.5);
}

TEST(Transient, InitialStateIsSteady) {
  const ThermalModel m(paperConfig(2, 2));
  Vector power(4, 1.0);
  const TransientSolver solver(m, 1e-3);
  EXPECT_LT(maxAbsDiff(solver.initialState(power), m.steadyState(power)),
            1e-12);
}

TEST(Transient, RejectsBadArguments) {
  const ThermalModel m(paperConfig(2, 2));
  EXPECT_THROW(TransientSolver(m, 0.0), Error);
  const TransientSolver solver(m, 1e-3);
  EXPECT_THROW(solver.step(Vector(3, 300.0), Vector(4, 0.0)), Error);
}

// --- Grid-resolution model -------------------------------------------------

TEST(GridModel, NodeCounting) {
  GridThermalConfig gc;
  gc.base = paperConfig(4, 4);
  gc.subdivision = 2;
  const GridThermalModel m(gc);
  EXPECT_EQ(m.coreCount(), 16);
  EXPECT_EQ(m.subBlocksPerCore(), 4);
  EXPECT_EQ(m.nodeCount(), 16 * 4 + 2 * 16);
}

TEST(GridModel, SubBlocksPartitionTheDie) {
  GridThermalConfig gc;
  gc.base = paperConfig(3, 3);
  gc.subdivision = 3;
  const GridThermalModel m(gc);
  std::vector<int> seen(static_cast<std::size_t>(m.subGrid().count()), 0);
  for (int core = 0; core < m.coreCount(); ++core)
    for (int i : m.coreSubBlocks(core)) ++seen[static_cast<std::size_t>(i)];
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(GridModel, AgreesWithBlockModelUnderUniformPower) {
  // With uniform per-core power the sub-grid adds no information, so the
  // per-core averages must track the block model closely.
  const ThermalConfig base = paperConfig(4, 4);
  const ThermalModel block(base);
  GridThermalConfig gc;
  gc.base = base;
  gc.subdivision = 2;
  const GridThermalModel grid(gc);

  Vector power(16, 0.0);
  power[5] = 6.0;
  power[10] = 3.0;
  const Vector blockT = block.steadyStateCoreTemperatures(power);
  const Vector gridT = grid.coreTemperatures(grid.steadyState(power));
  // The fine die grid conducts laterally slightly better than one lumped
  // node per tile, so loaded cores read marginally cooler; 2 K bounds the
  // discrepancy at these power levels.
  for (int i = 0; i < 16; ++i)
    EXPECT_NEAR(gridT[static_cast<std::size_t>(i)],
                blockT[static_cast<std::size_t>(i)], 2.0)
        << "core " << i;
}

TEST(GridModel, ResolvesIntraCoreHotspot) {
  // Concentrating a core's power in one sub-block must produce a peak
  // above the core average — the gradient the block model cannot see.
  GridThermalConfig gc;
  gc.base = paperConfig(3, 3);
  gc.subdivision = 2;
  const GridThermalModel m(gc);
  Vector sub(static_cast<std::size_t>(m.subGrid().count()), 0.0);
  const auto blocks = m.coreSubBlocks(4);  // center core
  sub[static_cast<std::size_t>(blocks[0])] = 8.0;  // all power in one corner
  const Vector temps = m.steadyStateSubBlocks(sub);
  const Vector avg = m.coreTemperatures(temps);
  const Vector peak = m.corePeakTemperatures(temps);
  EXPECT_GT(peak[4], avg[4] + 1.0);
  // And the loaded sub-block is the core's hottest.
  const Vector subT = m.subBlockTemperatures(temps);
  for (int i : blocks)
    EXPECT_LE(subT[static_cast<std::size_t>(i)],
              subT[static_cast<std::size_t>(blocks[0])] + 1e-9);
}

TEST(GridModel, EnergyBalance) {
  GridThermalConfig gc;
  gc.base = paperConfig(3, 3);
  gc.subdivision = 2;
  const GridThermalModel m(gc);
  Vector power(9, 0.0);
  power[2] = 7.0;
  const Vector temps = m.steadyState(power);
  const double gConv = 1.0 / (gc.base.convectionResistance * 9);
  double convected = 0.0;
  const int sinkBase = m.subGrid().count() + 9;
  for (int i = 0; i < 9; ++i)
    convected += gConv * (temps[static_cast<std::size_t>(sinkBase + i)] -
                          gc.base.ambient);
  EXPECT_NEAR(convected, 7.0, 1e-8);
}

TEST(GridModel, SubdivisionOneMatchesBlockModelExactly) {
  const ThermalConfig base = paperConfig(3, 3);
  const ThermalModel block(base);
  GridThermalConfig gc;
  gc.base = base;
  gc.subdivision = 1;
  const GridThermalModel grid(gc);
  Vector power(9, 2.0);
  power[4] = 6.0;
  const Vector blockT = block.steadyStateCoreTemperatures(power);
  const Vector gridT = grid.coreTemperatures(grid.steadyState(power));
  EXPECT_LT(maxAbsDiff(blockT, gridT), 1e-9);
}

TEST(GridModel, RejectsBadInputs) {
  GridThermalConfig gc;
  gc.base = paperConfig(2, 2);
  gc.subdivision = 0;
  EXPECT_THROW(GridThermalModel{gc}, Error);
  gc.subdivision = 2;
  const GridThermalModel m(gc);
  EXPECT_THROW(m.steadyState(Vector(3, 1.0)), Error);
  EXPECT_THROW(m.steadyStateSubBlocks(Vector(16, -1.0)), Error);
}

// --- Parameterized: package parameter monotonicity -----------------------

class ConvectionSweep : public ::testing::TestWithParam<double> {};

TEST_P(ConvectionSweep, HigherResistanceRunsHotter) {
  ThermalConfig tc = paperConfig(4, 4);
  tc.convectionResistance = GetParam();
  const ThermalModel m(tc);
  Vector power(16, 3.0);
  const Vector t = m.steadyStateCoreTemperatures(power);
  // Compare against a colder reference package.
  ThermalConfig ref = paperConfig(4, 4);
  ref.convectionResistance = GetParam() / 2.0;
  const ThermalModel mRef(ref);
  const Vector tRef = mRef.steadyStateCoreTemperatures(power);
  for (int i = 0; i < 16; ++i)
    EXPECT_GT(t[static_cast<std::size_t>(i)],
              tRef[static_cast<std::size_t>(i)]);
}

INSTANTIATE_TEST_SUITE_P(PackageSweep, ConvectionSweep,
                         ::testing::Values(0.02, 0.04, 0.08, 0.16));

class GridSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(GridSizeSweep, EnergyBalanceAtAnySize) {
  const int n = GetParam();
  const ThermalModel m(paperConfig(n, n));
  Vector power(static_cast<std::size_t>(n * n), 0.0);
  power[0] = 5.0;
  const Vector temps = m.steadyState(power);
  const double gConv = 1.0 / (m.config().convectionResistance * n * n);
  double convected = 0.0;
  for (int i = 0; i < n * n; ++i)
    convected += gConv *
                 (temps[static_cast<std::size_t>(2 * n * n + i)] -
                  m.config().ambient);
  EXPECT_NEAR(convected, 5.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GridSizeSweep, ::testing::Values(1, 2, 3, 5, 8));

class SubdivisionSweep : public ::testing::TestWithParam<int> {};

TEST_P(SubdivisionSweep, CoreAveragesConvergeAcrossResolutions) {
  // Refining the die grid must not change the tile-level physics: the
  // per-core averages stay within a narrow band of the block model at
  // every subdivision (finer grids conduct laterally a little better, so
  // loaded cores read a few kelvin cooler — bounded, not divergent).
  const ThermalConfig base = paperConfig(3, 3);
  const ThermalModel block(base);
  GridThermalConfig gc;
  gc.base = base;
  gc.subdivision = GetParam();
  const GridThermalModel grid(gc);
  Vector power(9, 0.0);
  power[4] = 7.0;
  power[0] = 2.0;
  const Vector blockT = block.steadyStateCoreTemperatures(power);
  const Vector gridT = grid.coreTemperatures(grid.steadyState(power));
  for (int i = 0; i < 9; ++i)
    EXPECT_NEAR(gridT[static_cast<std::size_t>(i)],
                blockT[static_cast<std::size_t>(i)], 4.0);
}

TEST_P(SubdivisionSweep, PeakAtLeastAverage) {
  GridThermalConfig gc;
  gc.base = paperConfig(3, 3);
  gc.subdivision = GetParam();
  const GridThermalModel grid(gc);
  Vector power(9, 3.0);
  const Vector nodes = grid.steadyState(power);
  const Vector avg = grid.coreTemperatures(nodes);
  const Vector peak = grid.corePeakTemperatures(nodes);
  for (int i = 0; i < 9; ++i)
    EXPECT_GE(peak[static_cast<std::size_t>(i)],
              avg[static_cast<std::size_t>(i)] - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Subdivisions, SubdivisionSweep,
                         ::testing::Values(1, 2, 3, 4));

// --- Sparse vs dense solver paths ----------------------------------------

/// Sets HAYAT_DENSE_SOLVER for the lifetime of one scope.
class ScopedDenseSolver {
 public:
  explicit ScopedDenseSolver(bool dense) {
    setenv("HAYAT_DENSE_SOLVER", dense ? "1" : "0", 1);
  }
  ~ScopedDenseSolver() { unsetenv("HAYAT_DENSE_SOLVER"); }
};

TEST(SolverPaths, BlockModelSteadyStateBitwiseIdentical) {
  Vector power(64, 0.0);
  for (int i = 0; i < 64; ++i)
    power[static_cast<std::size_t>(i)] = (i % 3 == 0) ? 6.0 : 1.5;
  Vector banded;
  Vector dense;
  {
    const ScopedDenseSolver env(false);
    banded = ThermalModel(paperConfig()).steadyState(power);
  }
  {
    const ScopedDenseSolver env(true);
    dense = ThermalModel(paperConfig()).steadyState(power);
  }
  ASSERT_EQ(banded.size(), dense.size());
  for (std::size_t i = 0; i < banded.size(); ++i)
    EXPECT_EQ(banded[i], dense[i]) << "node " << i;
}

TEST(SolverPaths, BlockModelTransientBitwiseIdentical) {
  ThermalModel::clearSharedTransientCacheForTest();
  Vector power(16, 4.0);
  Vector banded;
  Vector dense;
  {
    const ScopedDenseSolver env(false);
    const ThermalModel m(paperConfig(4, 4));
    const TransientSolver solver(m, 6.6e-3);
    banded = solver.run(m.steadyState(Vector(16, 0.0)), power, 50);
  }
  {
    const ScopedDenseSolver env(true);
    const ThermalModel m(paperConfig(4, 4));
    const TransientSolver solver(m, 6.6e-3);
    dense = solver.run(m.steadyState(Vector(16, 0.0)), power, 50);
  }
  ASSERT_EQ(banded.size(), dense.size());
  for (std::size_t i = 0; i < banded.size(); ++i)
    EXPECT_EQ(banded[i], dense[i]) << "node " << i;
}

TEST(SolverPaths, GridModelBitwiseIdentical) {
  GridThermalConfig gc;
  gc.base = paperConfig(4, 4);
  gc.subdivision = 3;
  Vector power(16, 0.0);
  for (int i = 0; i < 16; ++i)
    power[static_cast<std::size_t>(i)] = 1.0 + 0.25 * i;
  Vector banded;
  Vector dense;
  {
    const ScopedDenseSolver env(false);
    banded = GridThermalModel(gc).steadyState(power);
  }
  {
    const ScopedDenseSolver env(true);
    dense = GridThermalModel(gc).steadyState(power);
  }
  ASSERT_EQ(banded.size(), dense.size());
  for (std::size_t i = 0; i < banded.size(); ++i)
    EXPECT_EQ(banded[i], dense[i]) << "node " << i;
}

TEST(SolverPaths, SparseAssemblyMatchesDenseCopy) {
  const ThermalModel m(paperConfig(4, 4));
  const SparseMatrix& sparse = m.conductanceSparse();
  const Matrix& dense = m.conductance();
  ASSERT_EQ(sparse.rows(), dense.rows());
  for (int r = 0; r < sparse.rows(); ++r)
    for (int c = 0; c < sparse.cols(); ++c)
      EXPECT_EQ(sparse.at(r, c), dense(r, c)) << r << "," << c;
  // ≤7 nonzeros per row: 4 lateral + up + down + diagonal.
  for (int r = 0; r < sparse.rows(); ++r)
    EXPECT_LE(sparse.rowStart()[static_cast<std::size_t>(r) + 1] -
                  sparse.rowStart()[static_cast<std::size_t>(r)],
              7);
}

TEST(SolverPaths, RcmOrderingShrinksModelBandwidth) {
  const ThermalModel m(paperConfig());
  const int natural = bandwidthOf(m.conductanceSparse(), {});
  const int rcm = bandwidthOf(m.conductanceSparse(), m.nodeOrdering());
  // Layer-stacked layout has bandwidth ~2N; RCM interleaves the layers.
  EXPECT_LT(rcm, natural / 2);
}

// --- Blocked banded kernels (§3.13) --------------------------------------

/// Random symmetric diagonally dominant matrix with all nonzeros inside
/// |i-j| <= band — the class BandedFactorization is valid for.
SparseMatrix randomBandedSpd(int n, int band, Rng& rng) {
  SparseMatrixBuilder builder(n, n);
  std::vector<double> rowAbs(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j <= std::min(n - 1, i + band); ++j) {
      if (rng.uniform() < 0.4) continue;  // keep the pattern irregular
      const double v = rng.uniform(-2.0, 2.0);
      builder.add(i, j, v);
      builder.add(j, i, v);
      rowAbs[static_cast<std::size_t>(i)] += std::abs(v);
      rowAbs[static_cast<std::size_t>(j)] += std::abs(v);
    }
  }
  for (int i = 0; i < n; ++i)
    builder.add(i, i, rowAbs[static_cast<std::size_t>(i)] + 1.0 +
                          rng.uniform());
  return builder.build();
}

TEST(BlockedSweeps, PermutedSolveMatchesReferenceSweepFuzz) {
  // Property fuzz over random sizes and band widths: the fused-permute
  // jammed sweep (solvePermuted) must reproduce the reference
  // pack -> solveInPlace -> unpack path bit for bit.
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + rng.uniformInt(40);
    const int band = rng.uniformInt(std::min(n, 9));
    const SparseMatrix a = randomBandedSpd(n, band, rng);
    const BandedFactorization lu(a, band);
    // A random permutation exercises the fused gather/scatter.
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i)
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>(rng.uniformInt(i + 1))]);
    // NOTE: solvePermuted solves the *factored* matrix with a permuted
    // RHS view; the reference does the same by hand.
    Vector b(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      b[static_cast<std::size_t>(i)] = rng.uniform(-5.0, 5.0);

    Vector reference(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      reference[static_cast<std::size_t>(i)] =
          b[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
    lu.solveInPlace(reference);

    Vector fused = b;
    // Poisoned scratch: a read of any element before the sweep writes it
    // (a wrong profile bound, say) turns the result into NaN.
    Vector scratch(static_cast<std::size_t>(n),
                   std::numeric_limits<double>::quiet_NaN());
    const bool matched = lu.solvePermuted(fused, scratch, perm, nullptr);
    EXPECT_FALSE(matched) << "null compare must report false";
    for (int i = 0; i < n; ++i) {
      const auto dst = static_cast<std::size_t>(perm[static_cast<std::size_t>(i)]);
      EXPECT_EQ(fused[dst], reference[static_cast<std::size_t>(i)])
          << "trial " << trial << " n=" << n << " band=" << band
          << " row " << i;
    }
  }
}

TEST(BlockedSweeps, SolveManyPermutedMatchesPerRhsFuzz) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 1 + rng.uniformInt(32);
    const int band = rng.uniformInt(std::min(n, 7));
    const int count = 1 + rng.uniformInt(6);
    const SparseMatrix a = randomBandedSpd(n, band, rng);
    const RcSolver solver(a, {}, RcSolver::Mode::Banded);
    std::vector<Vector> batch(static_cast<std::size_t>(count));
    std::vector<Vector> singles(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
      Vector b(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i)
        b[static_cast<std::size_t>(i)] = rng.uniform(-3.0, 3.0);
      batch[static_cast<std::size_t>(k)] = b;
      singles[static_cast<std::size_t>(k)] = b;
    }
    Vector scratch;
    solver.solveManyInPlace(batch, scratch);
    for (int k = 0; k < count; ++k) {
      Vector s;
      solver.solveInPlace(singles[static_cast<std::size_t>(k)], s);
      for (int i = 0; i < n; ++i)
        EXPECT_EQ(batch[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)],
                  singles[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)])
            << "trial " << trial << " rhs " << k << " row " << i;
    }
  }
}

TEST(BlockedSweeps, SolveInPlaceCompareDetectsFixedPointExactly) {
  Rng rng(11);
  const int n = 24;
  const int band = 4;
  const SparseMatrix a = randomBandedSpd(n, band, rng);
  for (const RcSolver::Mode mode :
       {RcSolver::Mode::Banded, RcSolver::Mode::Dense}) {
    const RcSolver solver(a, {}, mode);
    Vector b(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      b[static_cast<std::size_t>(i)] = rng.uniform(-4.0, 4.0);
    const Vector solution = solver.solve(b);
    Vector scratch;

    // compare == the exact solution: must report the fixed point and
    // still produce the identical solution in x.
    Vector x = b;
    EXPECT_TRUE(solver.solveInPlaceCompare(x, scratch, solution));
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(x[static_cast<std::size_t>(i)],
                solution[static_cast<std::size_t>(i)]);

    // One flipped bit anywhere breaks it — the detector is bitwise, not
    // tolerance-based.
    Vector offByOneUlp = solution;
    std::uint64_t bits;
    std::memcpy(&bits, &offByOneUlp[static_cast<std::size_t>(n / 2)],
                sizeof(bits));
    bits ^= 1u;
    std::memcpy(&offByOneUlp[static_cast<std::size_t>(n / 2)], &bits,
                sizeof(bits));
    x = b;
    EXPECT_FALSE(solver.solveInPlaceCompare(x, scratch, offByOneUlp));
  }
}

TEST(Transient, StepInPlaceDetectMatchesStepBitwise) {
  const ThermalModel m(paperConfig(4, 4));
  const TransientSolver solver(m, 6.6e-3);
  const Vector power(16, 3.5);
  Vector plain = m.steadyState(Vector(16, 0.0));
  Vector detect = plain;
  Vector s1, s2, s3;
  for (int step = 0; step < 40; ++step) {
    solver.stepInPlace(plain, power, s1);
    const bool fixedPoint = solver.stepInPlaceDetect(detect, power, s2, s3);
    ASSERT_EQ(plain.size(), detect.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
      EXPECT_EQ(plain[i], detect[i]) << "step " << step << " node " << i;
    // Far from steady state the detector must not fire.
    if (step == 0) EXPECT_FALSE(fixedPoint);
  }
}

TEST(Transient, DetectReportsFixedPointAtSteadyState) {
  const ThermalModel m(paperConfig(4, 4));
  const TransientSolver solver(m, 6.6e-3);
  Vector power(16, 0.0);
  for (int i = 0; i < 16; ++i)
    power[static_cast<std::size_t>(i)] = (i % 2 == 0) ? 4.0 : 0.5;
  // Iterate until the trajectory locks; the bitwise fixed point must be
  // reached and then persist.
  Vector temps = m.steadyState(power);
  Vector s1, s2;
  bool reached = false;
  for (int step = 0; step < 2000 && !reached; ++step)
    reached = solver.stepInPlaceDetect(temps, power, s1, s2);
  ASSERT_TRUE(reached) << "no bitwise fixed point within 2000 steps";
  EXPECT_TRUE(solver.stepInPlaceDetect(temps, power, s1, s2));
  EXPECT_TRUE(solver.stepInPlaceDetect(temps, power, s1, s2));
}

}  // namespace
}  // namespace hayat
