// Tests for the workload substrate: thread profiles, malleable
// applications, and the Parsec-like mix generator.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "workload/application.hpp"
#include "workload/generator.hpp"
#include "workload/thread_profile.hpp"
#include "workload/trace_io.hpp"

namespace hayat {
namespace {

ThreadProfile twoPhaseProfile() {
  return ThreadProfile({{1.0, 4.0, 0.6, 1.5}, {3.0, 2.0, 0.2, 0.5}}, 2.0e9);
}

// --- ThreadProfile ----------------------------------------------------------

TEST(ThreadProfile, PeriodIsSumOfPhases) {
  EXPECT_DOUBLE_EQ(twoPhaseProfile().period(), 4.0);
}

TEST(ThreadProfile, PhaseAtCyclesThroughTrace) {
  const ThreadProfile p = twoPhaseProfile();
  EXPECT_DOUBLE_EQ(p.phaseAt(0.5).dynamicPower, 4.0);
  EXPECT_DOUBLE_EQ(p.phaseAt(2.0).dynamicPower, 2.0);
  // Cyclic wrap: t = 4.5 is back in phase 0.
  EXPECT_DOUBLE_EQ(p.phaseAt(4.5).dynamicPower, 4.0);
  EXPECT_DOUBLE_EQ(p.phaseAt(400.25).dynamicPower, 4.0);
}

/// phaseAt as first written: fmod on every call.
int referencePhaseIndex(const ThreadProfile& p, Seconds t) {
  Seconds within = std::fmod(t, p.period());
  for (int k = 0; k < p.phaseCount(); ++k) {
    if (within < p.phase(k).duration) return k;
    within -= p.phase(k).duration;
  }
  return p.phaseCount() - 1;
}

TEST(ThreadProfile, PhaseAtMatchesFmodReferenceAtEveryStep) {
  // phaseAt skips the fmod when t < period; the epoch loop calls it at
  // s * 6.6 ms.  Random profiles span the suite's 0.4-7.5 s periods; one
  // in four has phases (hence boundaries and the period) at exact step
  // times, so boundary steps are covered on both sides of the shortcut.
  const Seconds step = 6.6e-3;
  Rng rng(2024);
  for (int n = 0; n < 1000; ++n) {
    const int phases = 1 + rng.uniformInt(5);
    const bool onSteps = n % 4 == 0;
    std::vector<ThreadPhase> trace;
    for (int k = 0; k < phases; ++k) {
      ThreadPhase ph;
      ph.duration = onSteps ? step * (12 + rng.uniformInt(220))
                            : rng.uniform(0.4, 7.5) / phases;
      ph.dynamicPower = k;
      trace.push_back(ph);
    }
    const ThreadProfile p(trace, 1.0e9);
    for (int s = 0; s < 1200; ++s) {
      const Seconds t = s * step;
      ASSERT_EQ(&p.phaseAt(t), &p.phase(referencePhaseIndex(p, t)))
          << "profile " << n << " step " << s;
    }
  }
}

TEST(ThreadProfile, TimeWeightedAverages) {
  const ThreadProfile p = twoPhaseProfile();
  EXPECT_DOUBLE_EQ(p.averagePower(), (4.0 * 1.0 + 2.0 * 3.0) / 4.0);
  EXPECT_DOUBLE_EQ(p.averageDuty(), (0.6 * 1.0 + 0.2 * 3.0) / 4.0);
}

TEST(ThreadProfile, PeakValues) {
  const ThreadProfile p = twoPhaseProfile();
  EXPECT_DOUBLE_EQ(p.peakPower(), 4.0);
  EXPECT_DOUBLE_EQ(p.peakDuty(), 0.6);
}

TEST(ThreadProfile, InstructionsPerSecond) {
  const ThreadProfile p = twoPhaseProfile();
  const double avgIpc = (1.5 * 1.0 + 0.5 * 3.0) / 4.0;
  EXPECT_DOUBLE_EQ(p.instructionsPerSecond(2.0e9), avgIpc * 2.0e9);
}

TEST(ThreadProfile, RejectsInvalidPhases) {
  EXPECT_THROW(ThreadProfile({}, 1e9), Error);
  EXPECT_THROW(ThreadProfile({{0.0, 1.0, 0.5, 1.0}}, 1e9), Error);
  EXPECT_THROW(ThreadProfile({{1.0, -1.0, 0.5, 1.0}}, 1e9), Error);
  EXPECT_THROW(ThreadProfile({{1.0, 1.0, 1.5, 1.0}}, 1e9), Error);
  EXPECT_THROW(ThreadProfile({{1.0, 1.0, 0.5, 1.0}}, 0.0), Error);
}

// --- Application -------------------------------------------------------------

Application twoThreadApp() {
  return Application("test", {twoPhaseProfile(), twoPhaseProfile()}, 1);
}

TEST(Application, BasicAccessors) {
  const Application app = twoThreadApp();
  EXPECT_EQ(app.name(), "test");
  EXPECT_EQ(app.maxThreads(), 2);
  EXPECT_EQ(app.minThreads(), 1);
  EXPECT_DOUBLE_EQ(app.totalAveragePower(), 2.0 * 2.5);
}

TEST(Application, MalleableFrequencyScaling) {
  const Application app = twoThreadApp();
  // Full parallelism: the profile's own f_min.
  EXPECT_DOUBLE_EQ(app.minFrequencyAt(0, 2), 2.0e9);
  // Shrunk to one thread: it must run twice as fast.
  EXPECT_DOUBLE_EQ(app.minFrequencyAt(0, 1), 4.0e9);
}

TEST(Application, RejectsOutOfRangeParallelism) {
  const Application app = twoThreadApp();
  EXPECT_THROW(app.minFrequencyAt(0, 0), Error);
  EXPECT_THROW(app.minFrequencyAt(0, 3), Error);
  EXPECT_THROW(Application("x", {twoPhaseProfile()}, 2), Error);
}

TEST(WorkloadMixTotals, SumsAcrossApplications) {
  WorkloadMix mix;
  mix.applications.push_back(twoThreadApp());
  mix.applications.push_back(twoThreadApp());
  EXPECT_EQ(mix.totalMaxThreads(), 4);
  EXPECT_EQ(mix.totalMinThreads(), 2);
}

// --- ParsecLikeSuite ----------------------------------------------------------

TEST(Suite, HasTenBenchmarks) {
  EXPECT_EQ(ParsecLikeSuite::specs().size(), 10u);
}

TEST(Suite, FindByName) {
  ASSERT_TRUE(ParsecLikeSuite::find("x264").has_value());
  EXPECT_EQ(ParsecLikeSuite::find("x264")->name, "x264");
  EXPECT_FALSE(ParsecLikeSuite::find("doom").has_value());
}

TEST(Suite, PaperBenchmarksPresent) {
  // Fig. 2's setup names bodytrack and x264.
  EXPECT_TRUE(ParsecLikeSuite::find("bodytrack").has_value());
  EXPECT_TRUE(ParsecLikeSuite::find("x264").has_value());
}

TEST(Suite, InstantiateRespectsSpecEnvelope) {
  Rng rng(3);
  const BenchmarkSpec spec = *ParsecLikeSuite::find("bodytrack");
  const Application app = ParsecLikeSuite::instantiate(spec, rng, 3.0e9, 8);
  EXPECT_EQ(app.maxThreads(), 8);
  EXPECT_EQ(app.minThreads(), spec.minParallelism);
  for (int t = 0; t < app.maxThreads(); ++t) {
    const ThreadProfile& p = app.thread(t);
    EXPECT_GE(p.minFrequency(), spec.fMinFracLo * 3.0e9 - 1.0);
    EXPECT_LE(p.minFrequency(), spec.fMinFracHi * 3.0e9 + 1.0);
    for (int ph = 0; ph < p.phaseCount(); ++ph) {
      EXPECT_GE(p.phase(ph).dynamicPower, spec.powerLo);
      EXPECT_LE(p.phase(ph).dynamicPower, spec.powerHi);
      EXPECT_GE(p.phase(ph).dutyCycle, spec.dutyLo);
      EXPECT_LE(p.phase(ph).dutyCycle, spec.dutyHi);
    }
  }
}

TEST(Suite, ThreadsShareApplicationFmin) {
  Rng rng(4);
  const Application app = ParsecLikeSuite::instantiate(
      *ParsecLikeSuite::find("ferret"), rng, 3.0e9, 6);
  for (int t = 1; t < app.maxThreads(); ++t)
    EXPECT_DOUBLE_EQ(app.thread(t).minFrequency(),
                     app.thread(0).minFrequency());
}

TEST(Suite, MemoryBoundCoolerThanComputeBound) {
  // canneal (memory-bound) must be less power-hungry than swaptions
  // (compute-bound) — the contrast the DCM optimization exploits.
  const BenchmarkSpec mem = *ParsecLikeSuite::find("canneal");
  const BenchmarkSpec cpu = *ParsecLikeSuite::find("swaptions");
  EXPECT_LT(mem.powerHi, cpu.powerHi);
  EXPECT_LT(mem.dutyHi, cpu.dutyLo + 0.5);
}

TEST(Suite, MakeMixRespectsBudget) {
  Rng rng(5);
  for (int budget : {8, 16, 32, 48}) {
    const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, budget, 3.0e9);
    EXPECT_FALSE(mix.applications.empty());
    EXPECT_LE(mix.totalMaxThreads(), budget);
    EXPECT_GE(mix.totalMaxThreads(), budget / 2);  // reasonably filled
  }
}

TEST(Suite, MakeMixTinyBudgetStillRuns) {
  Rng rng(6);
  const WorkloadMix mix = ParsecLikeSuite::makeMix(rng, 1, 3.0e9);
  EXPECT_EQ(mix.applications.size(), 1u);
}

TEST(Suite, MixesVaryWithRngState) {
  Rng rng(8);
  const WorkloadMix a = ParsecLikeSuite::makeMix(rng, 32, 3.0e9);
  const WorkloadMix b = ParsecLikeSuite::makeMix(rng, 32, 3.0e9);
  // Extremely unlikely to draw the same mix twice.
  bool differ = a.applications.size() != b.applications.size();
  if (!differ) {
    for (std::size_t i = 0; i < a.applications.size(); ++i)
      if (a.applications[i].name() != b.applications[i].name() ||
          a.applications[i].maxThreads() != b.applications[i].maxThreads())
        differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(Suite, DeterministicForEqualSeeds) {
  Rng a(9), b(9);
  const WorkloadMix ma = ParsecLikeSuite::makeMix(a, 32, 3.0e9);
  const WorkloadMix mb = ParsecLikeSuite::makeMix(b, 32, 3.0e9);
  ASSERT_EQ(ma.applications.size(), mb.applications.size());
  for (std::size_t i = 0; i < ma.applications.size(); ++i) {
    EXPECT_EQ(ma.applications[i].name(), mb.applications[i].name());
    EXPECT_DOUBLE_EQ(ma.applications[i].thread(0).averagePower(),
                     mb.applications[i].thread(0).averagePower());
  }
}

// --- Trace I/O ---------------------------------------------------------------

TEST(TraceIo, RoundTripPreservesMix) {
  Rng rng(31);
  const WorkloadMix original = ParsecLikeSuite::makeMix(rng, 24, 3.0e9);
  std::stringstream buffer;
  writeWorkloadCsv(buffer, original);
  const WorkloadMix restored = readWorkloadCsv(buffer);

  ASSERT_EQ(restored.applications.size(), original.applications.size());
  for (std::size_t j = 0; j < original.applications.size(); ++j) {
    const Application& a = original.applications[j];
    const Application& b = restored.applications[j];
    ASSERT_EQ(b.maxThreads(), a.maxThreads());
    EXPECT_EQ(b.minThreads(), a.minThreads());
    for (int t = 0; t < a.maxThreads(); ++t) {
      const ThreadProfile& pa = a.thread(t);
      const ThreadProfile& pb = b.thread(t);
      EXPECT_NEAR(pb.minFrequency(), pa.minFrequency(), 1.0);  // 12-digit CSV
      ASSERT_EQ(pb.phaseCount(), pa.phaseCount());
      for (int p = 0; p < pa.phaseCount(); ++p) {
        EXPECT_NEAR(pb.phase(p).dynamicPower, pa.phase(p).dynamicPower, 1e-9);
        EXPECT_NEAR(pb.phase(p).dutyCycle, pa.phase(p).dutyCycle, 1e-9);
        EXPECT_NEAR(pb.phase(p).duration, pa.phase(p).duration, 1e-9);
        EXPECT_NEAR(pb.phase(p).ipc, pa.phase(p).ipc, 1e-9);
      }
    }
  }
}

TEST(TraceIo, DuplicateApplicationInstancesSurviveRoundTrip) {
  Rng rng(32);
  WorkloadMix mix;
  const BenchmarkSpec spec = *ParsecLikeSuite::find("canneal");
  mix.applications.push_back(ParsecLikeSuite::instantiate(spec, rng, 3e9, 2));
  mix.applications.push_back(ParsecLikeSuite::instantiate(spec, rng, 3e9, 3));
  std::stringstream buffer;
  writeWorkloadCsv(buffer, mix);
  const WorkloadMix restored = readWorkloadCsv(buffer);
  ASSERT_EQ(restored.applications.size(), 2u);
  EXPECT_EQ(restored.applications[0].maxThreads(), 2);
  EXPECT_EQ(restored.applications[1].maxThreads(), 3);
}

TEST(TraceIo, ParsesHandWrittenTrace) {
  std::stringstream in(
      "# comment line\n"
      "\n"
      "myapp,2,1.5e9,0,0.5,4.0,0.6,1.2\n"
      "myapp,2,1.5e9,0,0.3,2.0,0.3,0.8\n"
      "myapp,2,1.5e9,1,1.0,3.0,0.5,1.0\n");
  const WorkloadMix mix = readWorkloadCsv(in);
  ASSERT_EQ(mix.applications.size(), 1u);
  const Application& app = mix.applications[0];
  EXPECT_EQ(app.name(), "myapp");
  EXPECT_EQ(app.maxThreads(), 2);
  EXPECT_EQ(app.minThreads(), 2);
  EXPECT_EQ(app.thread(0).phaseCount(), 2);
  EXPECT_EQ(app.thread(1).phaseCount(), 1);
  EXPECT_DOUBLE_EQ(app.thread(0).minFrequency(), 1.5e9);
  EXPECT_DOUBLE_EQ(app.thread(0).phase(1).dynamicPower, 2.0);
}

TEST(TraceIo, RejectsMalformedInput) {
  std::stringstream wrongColumns("a,1,1e9,0,0.5,4.0,0.6\n");
  EXPECT_THROW(readWorkloadCsv(wrongColumns), Error);
  std::stringstream badNumber("a,1,1e9,0,abc,4.0,0.6,1.0\n");
  EXPECT_THROW(readWorkloadCsv(badNumber), Error);
  std::stringstream gapThread(
      "a,1,1e9,0,0.5,4.0,0.6,1.0\n"
      "a,1,1e9,2,0.5,4.0,0.6,1.0\n");
  EXPECT_THROW(readWorkloadCsv(gapThread), Error);
  std::stringstream empty("# nothing\n");
  EXPECT_THROW(readWorkloadCsv(empty), Error);
}

// --- Parameterized: every benchmark instantiates cleanly ---------------------

class EveryBenchmark : public ::testing::TestWithParam<int> {};

TEST_P(EveryBenchmark, InstantiatesAcrossParallelismRange) {
  const BenchmarkSpec& spec =
      ParsecLikeSuite::specs()[static_cast<std::size_t>(GetParam())];
  Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  for (int k = spec.minParallelism; k <= spec.maxParallelism; ++k) {
    const Application app = ParsecLikeSuite::instantiate(spec, rng, 3.0e9, k);
    EXPECT_EQ(app.maxThreads(), k);
    EXPECT_GT(app.totalAveragePower(), 0.0);
    for (int t = 0; t < k; ++t) {
      EXPECT_GT(app.thread(t).averageDuty(), 0.0);
      EXPECT_LE(app.thread(t).averageDuty(), 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, EveryBenchmark,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace hayat
