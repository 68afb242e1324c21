// Thread-to-core mapping state and the policy interface.
//
// Section III defines the mapping function m_(i,j,k); a Mapping object is
// the realized m: at most one thread per core (constraint Eq. 5), each
// mapped thread carrying its operating frequency (threads "only run at
// their required frequency and not faster", Section VI).  Cores without a
// thread are power-gated — the Mapping therefore *is* the Dark Core Map.
//
// MappingPolicy is the interface both comparison partners implement:
// the Hayat system (src/core) and the VAA baseline (src/baselines).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "arch/chip.hpp"
#include "arch/dark_core_map.hpp"
#include "arch/dvfs.hpp"
#include "common/units.hpp"
#include "power/leakage.hpp"
#include "thermal/thermal_model.hpp"
#include "workload/application.hpp"

namespace hayat {

/// Identifies thread k of application j within a WorkloadMix.
struct ThreadRef {
  int app = 0;
  int thread = 0;

  friend bool operator==(const ThreadRef&, const ThreadRef&) = default;
};

/// One mapped thread: where it runs and at what frequency.
struct MappedThread {
  ThreadRef ref;
  int core = 0;
  Hertz frequency = 0.0;  ///< current operating frequency
  /// The thread's throughput requirement at its chosen parallelism; the
  /// DTM throttles `frequency` below this and restores it afterwards.
  Hertz requiredFrequency = 0.0;
};

/// Structure-of-arrays copy of a Mapping's slots, one entry per core.
/// The epoch step loop reads these contiguous arrays instead of the
/// std::optional slots and rebuilds them only when the mapping changes
/// (DESIGN.md §3.8).  Idle cores hold 0 / null.
struct CoreSlots {
  std::vector<unsigned char> busy;            ///< 1 iff the core hosts a thread
  std::vector<const ThreadProfile*> profile;  ///< the hosted thread's trace
  Vector powerScale;                          ///< frequency / nominalFrequency
  Vector frequency;                           ///< operating frequency [Hz]
  Vector requiredFrequency;                   ///< the thread's requirement
};

/// The assignment m_(i,j,k) with the Eq. (5) invariant enforced.
class Mapping {
 public:
  explicit Mapping(int coreCount);

  int coreCount() const { return static_cast<int>(coreThread_.size()); }

  /// Places a thread on an empty core.  Throws if the core is busy.
  /// `requiredFrequency` defaults to `frequency`; pass it explicitly when
  /// the core cannot reach the thread's true requirement (the gap is a
  /// throughput violation the epoch statistics expose).
  void assign(ThreadRef ref, int core, Hertz frequency,
              Hertz requiredFrequency = 0.0);

  /// Removes the thread on `core` (no-op if the core is idle).
  void unassign(int core);

  /// Moves the thread on `fromCore` to the idle `toCore`.
  void migrate(int fromCore, int toCore);

  /// Changes the operating frequency of the thread on `core` (e.g. DTM
  /// throttling); the required frequency is preserved.
  void setFrequency(int core, Hertz frequency);

  /// Restores the thread on `core` to its required frequency.
  void restoreFrequency(int core);

  bool coreBusy(int core) const;
  const std::optional<MappedThread>& onCore(int core) const;

  /// All mapped threads (unspecified order).
  std::vector<MappedThread> threads() const;

  int assignedCount() const { return assignedCount_; }

  /// The power-state map implied by the assignment: a core is powered on
  /// iff it hosts a thread.
  DarkCoreMap toDarkCoreMap(const GridShape& grid) const;

  /// Per-core *average* dynamic power over the trace period (what the
  /// policies' predictors use — they know trace averages, not futures).
  Vector averageDynamicPower(const WorkloadMix& mix,
                             Hertz nominalFrequency) const;

  /// Allocation-free variant of averageDynamicPower: writes into `out`
  /// (resized to coreCount()) — the policy candidate-loop entry point.
  void averageDynamicPowerInto(const WorkloadMix& mix, Hertz nominalFrequency,
                               Vector& out) const;

  /// Writes every slot into `out` (arrays resized to coreCount(); no
  /// allocation once sized).  A busy core's dynamic power at trace time
  /// t is out.profile[i]->phaseAt(t).dynamicPower * out.powerScale[i].
  void slotsInto(const WorkloadMix& mix, Hertz nominalFrequency,
                 CoreSlots& out) const;

 private:
  std::vector<std::optional<MappedThread>> coreThread_;
  int assignedCount_ = 0;
};

/// Everything a mapping policy may consult when deciding an epoch's
/// assignment (sensor-visible state only).
struct PolicyContext {
  const Chip* chip = nullptr;
  const ThermalModel* thermal = nullptr;
  const LeakageModel* leakage = nullptr;
  const WorkloadMix* mix = nullptr;
  /// Optional discrete DVFS ladder; null means continuous core-level
  /// frequency scaling (the paper's assumption).  When set, policies snap
  /// thread frequencies to ladder levels via operatingFrequency().
  const FrequencyLadder* dvfs = nullptr;
  /// The health map as measured by the aging sensors D_i.  Null means
  /// ideal sensors (policies fall back to the chip's true health map);
  /// the lifetime simulator populates it with noisy readings when sensor
  /// noise is configured.
  const HealthMap* observedHealth = nullptr;
  /// Per-core consumed-life fractions (Miner's-rule wear-out damage),
  /// when the platform tracks them.  Null if unavailable; wear-aware
  /// policy extensions treat missing data as zero damage.
  const std::vector<double>* observedWear = nullptr;
  double minDarkFraction = 0.5;  ///< dark-silicon constraint of the scenario
  Hertz nominalFrequency = 3.0e9;  ///< trace reference frequency
  Kelvin tsafe = 368.15;
  Years epochYears = 0.25;       ///< aging epoch length (3 months)
  Years elapsedYears = 0.0;      ///< lifetime already consumed

  /// The health map policies must decide from (sensor view if present).
  const HealthMap& health() const;

  /// Sensor-visible present fmax of a core.
  Hertz observedFmax(int core) const { return health().currentFmax(core); }

  /// Consumed-life fraction of a core (0 when wear tracking is absent).
  double observedWearOf(int core) const {
    if (observedWear == nullptr) return 0.0;
    return (*observedWear)[static_cast<std::size_t>(core)];
  }
};

/// The operating frequency a thread with requirement `required` gets on
/// `core`: min(required, observed fmax) under continuous scaling, or the
/// ladder's operating level when the context carries a DVFS ladder.
Hertz operatingFrequency(const PolicyContext& context, int core,
                         Hertz required);

/// Interface implemented by Hayat and the baselines.
class MappingPolicy {
 public:
  virtual ~MappingPolicy() = default;

  virtual std::string name() const = 0;

  /// Produces the epoch's thread-to-core mapping.  Implementations must
  /// respect Eq. (4) (predicted T < Tsafe), Eq. (5) (one thread per
  /// core), the dark-silicon budget, and per-thread frequency
  /// requirements against the chip's *current* (aged) frequencies.
  virtual Mapping map(const PolicyContext& context) = 0;

  /// Places one newly-arrived application (`appIndex` within the
  /// context's mix, at `activeThreads` parallelism; <= 0 means its
  /// maximum) into an existing assignment without disturbing running
  /// threads.  The default implementation has no incremental support and
  /// simply remaps the whole mix; Hayat and VAA override it with true
  /// incremental placement (the Section VI mid-epoch decision path).
  virtual Mapping placeApplication(const PolicyContext& context,
                                   const Mapping& existing, int appIndex,
                                   int activeThreads = -1);
};

/// Chooses per-application parallelism K_j for a mix under an on-core
/// budget: starts every application at its maximum parallelism and
/// reduces round-robin (never below minThreads) until the total fits.
/// Throws if even minimal parallelism exceeds the budget.
std::vector<int> chooseParallelism(const WorkloadMix& mix, int maxOnCores);

/// Flattens a mix + parallelism choice into the policy's work list:
/// (ref, fMin, average power, average duty) per active thread.
struct RunnableThread {
  ThreadRef ref;
  Hertz minFrequency = 0.0;
  Watts averagePower = 0.0;
  Watts peakPower = 0.0;  ///< worst-case phase power (for Tsafe guards)
  double averageDuty = 0.5;
};
std::vector<RunnableThread> runnableThreads(const WorkloadMix& mix,
                                            const std::vector<int>& parallelism);

}  // namespace hayat
