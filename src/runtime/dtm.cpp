#include "runtime/dtm.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace hayat {

DtmManager::DtmManager(DtmConfig config) : config_(config) {
  HAYAT_REQUIRE(config.tsafe > 0.0, "tsafe must be positive kelvin");
  HAYAT_REQUIRE(config.coldMargin >= 0.0, "cold margin must be non-negative");
  HAYAT_REQUIRE(config.throttleFactor > 0.0 && config.throttleFactor < 1.0,
                "throttle factor must be in (0, 1)");
  HAYAT_REQUIRE(config.minimumFrequency > 0.0,
                "throttle floor must be positive");
}

bool DtmManager::evaluate(Mapping& mapping, const CoreSlots& slots,
                          const Vector& coreTemperatures,
                          const HealthMap& health) {
  const std::size_t n = slots.busy.size();
  HAYAT_REQUIRE(coreTemperatures.size() == n,
                "temperature vector size mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    const bool busy = slots.busy[i] != 0;
    const Kelvin t = coreTemperatures[i];
    const bool restorable =
        busy && canRestore(slots.frequency[i], slots.requiredFrequency[i], t);
    if (isHot(busy, t) || restorable) {
      const long restoresBefore = stats_.restores;
      return enforce(mapping, coreTemperatures, health) > 0 ||
             stats_.restores != restoresBefore;
    }
  }
  ++tick_;
  return false;
}

int DtmManager::enforce(Mapping& mapping, const Vector& coreTemperatures,
                        const HealthMap& health) {
  const int n = mapping.coreCount();
  HAYAT_REQUIRE(static_cast<int>(coreTemperatures.size()) == n,
                "temperature vector size mismatch");
  HAYAT_REQUIRE(health.coreCount() == n, "health map size mismatch");

  ++tick_;
  int actions = 0;

  // Restore throttled threads whose cores have recovered.
  for (int i = 0; i < n; ++i) {
    const auto& slot = mapping.onCore(i);
    if (!slot.has_value()) continue;
    if (canRestore(slot->frequency, slot->requiredFrequency,
                   coreTemperatures[static_cast<std::size_t>(i)])) {
      mapping.restoreFrequency(i);
      ++stats_.restores;
      if (telemetry::enabled()) {
        static telemetry::Counter& restores =
            telemetry::Registry::global().counter("hayat_dtm_restores_total");
        restores.add();
      }
    }
  }

  // Hot cores, hottest first.
  std::vector<int>& hot = hotScratch_;
  hot.clear();
  for (int i = 0; i < n; ++i)
    if (isHot(mapping.coreBusy(i),
              coreTemperatures[static_cast<std::size_t>(i)]))
      hot.push_back(i);
  std::sort(hot.begin(), hot.end(), [&](int a, int b) {
    return coreTemperatures[static_cast<std::size_t>(a)] >
           coreTemperatures[static_cast<std::size_t>(b)];
  });

  for (int hotCore : hot) {
    const auto& slot = mapping.onCore(hotCore);
    HAYAT_DCHECK(slot.has_value());
    const Hertz required = slot->requiredFrequency;
    const auto threadKey = std::make_pair(slot->ref.app, slot->ref.thread);
    const auto last = lastMigration_.find(threadKey);
    const bool inCooldown =
        last != lastMigration_.end() &&
        tick_ - last->second < config_.migrationCooldownChecks;

    // Coldest idle core that is cold enough and fast enough.
    int target = -1;
    double targetTemp = 0.0;
    if (!inCooldown) {
      for (int i = 0; i < n; ++i) {
        if (mapping.coreBusy(i)) continue;
        const double t = coreTemperatures[static_cast<std::size_t>(i)];
        if (t > config_.tsafe - config_.coldMargin) continue;
        if (health.currentFmax(i) < required) continue;
        if (target < 0 || t < targetTemp) {
          target = i;
          targetTemp = t;
        }
      }
    }

    if (target >= 0) {
      mapping.migrate(hotCore, target);
      lastMigration_[threadKey] = tick_;
      ++stats_.migrations;
      if (telemetry::enabled()) {
        static telemetry::Counter& migrations =
            telemetry::Registry::global().counter(
                "hayat_dtm_migrations_total");
        migrations.add();
      }
      ++actions;
    } else {
      // No eligible target: throttle in place (never below the floor).
      const Hertz throttled =
          std::max(config_.minimumFrequency,
                   slot->frequency * config_.throttleFactor);
      if (throttled < slot->frequency) {
        mapping.setFrequency(hotCore, throttled);
        ++stats_.throttles;
        if (telemetry::enabled()) {
          static telemetry::Counter& throttles =
              telemetry::Registry::global().counter(
                  "hayat_dtm_throttles_total");
          throttles.add();
        }
        ++actions;
      }
    }
  }
  return actions;
}

}  // namespace hayat
