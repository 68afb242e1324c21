// Dynamic Thermal Management (Section V).
//
// "As with this transient thermal simulation, a maximum safe temperature
// Tsafe ... might be reached, DTM will migrate threads from the hottest
// cores >= Tsafe to the coldest cores, if they are within Tsafe - 10 C,
// or throttle them if this is not possible."
//
// The DTM is reactive and policy-agnostic: both Hayat and the VAA
// baseline run under the same DTM, and the number of DTM events is itself
// an evaluation metric (Fig. 7) — a proactive mapping that avoids thermal
// emergencies needs fewer reactive interventions.
#pragma once

#include <map>
#include <utility>

#include "aging/health.hpp"
#include "common/matrix.hpp"
#include "common/units.hpp"
#include "runtime/mapping.hpp"

namespace hayat {

/// DTM trigger thresholds and throttle behaviour.
struct DtmConfig {
  Kelvin tsafe = 368.15;       ///< 95 C (Section V)
  Kelvin coldMargin = 10.0;    ///< migration target must be <= tsafe - this
  double throttleFactor = 0.5; ///< frequency multiplier per throttle event
  Hertz minimumFrequency = 0.2e9;  ///< throttle floor
  /// Minimum number of DTM evaluations between two migrations of the
  /// same thread.  Models the real cost of migration (state transfer,
  /// cache warm-up) and suppresses hot<->cold ping-pong; a thread inside
  /// its cooldown throttles instead.
  int migrationCooldownChecks = 5;
};

/// Cumulative DTM activity (normalized in Fig. 7).
struct DtmStats {
  long migrations = 0;
  long throttles = 0;
  long restores = 0;

  long events() const { return migrations + throttles; }
};

/// The reactive DTM controller.
class DtmManager {
 public:
  explicit DtmManager(DtmConfig config = {});

  const DtmConfig& config() const { return config_; }
  const DtmStats& stats() const { return stats_; }
  void resetStats() { stats_ = {}; }

  /// One DTM evaluation at the current sensor temperatures.  Mutates the
  /// mapping: migrates threads off cores at/above Tsafe onto the coldest
  /// eligible dark core (cold enough AND fast enough for the thread),
  /// throttles when no eligible target exists, and restores previously
  /// throttled threads whose cores have cooled below Tsafe - margin.
  /// Returns the number of migrations + throttles performed this call.
  int enforce(Mapping& mapping, const Vector& coreTemperatures,
              const HealthMap& health);

  /// The per-step DTM check of the epoch loop.  Calls enforce() only if
  /// it can act: some busy core is at/above Tsafe, or some throttled core
  /// is below Tsafe - coldMargin.  Otherwise the step is a quiet tick —
  /// it advances the evaluation counter exactly as a no-op enforce()
  /// would, so cooldowns and statistics are unchanged.  `slots` must
  /// mirror `mapping` (Mapping::slotsInto).  Returns true iff the
  /// mapping changed (a migration, throttle or restore).
  bool evaluate(Mapping& mapping, const CoreSlots& slots,
                const Vector& coreTemperatures, const HealthMap& health);

 private:
  /// The two trigger predicates; enforce() and evaluate() share them.
  bool isHot(bool busy, Kelvin temperature) const {
    return busy && temperature >= config_.tsafe;
  }
  bool canRestore(Hertz frequency, Hertz required, Kelvin temperature) const {
    return frequency < required &&
           temperature < config_.tsafe - config_.coldMargin;
  }

  DtmConfig config_;
  DtmStats stats_;
  long tick_ = 0;
  /// Last migration tick per thread, keyed by (app, thread).
  std::map<std::pair<int, int>, long> lastMigration_;
  /// Hot-core work list, kept as a member so the enforce() calls that
  /// act reuse one buffer instead of allocating per call.
  std::vector<int> hotScratch_;
};

}  // namespace hayat
