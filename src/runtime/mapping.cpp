#include "runtime/mapping.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hayat {

Mapping::Mapping(int coreCount)
    : coreThread_(static_cast<std::size_t>(coreCount)) {
  HAYAT_REQUIRE(coreCount > 0, "mapping needs >= 1 core");
}

void Mapping::assign(ThreadRef ref, int core, Hertz frequency,
                     Hertz requiredFrequency) {
  HAYAT_REQUIRE(core >= 0 && core < coreCount(), "core index out of range");
  HAYAT_REQUIRE(frequency > 0.0, "operating frequency must be positive");
  HAYAT_REQUIRE(requiredFrequency >= 0.0, "negative required frequency");
  auto& slot = coreThread_[static_cast<std::size_t>(core)];
  HAYAT_REQUIRE(!slot.has_value(),
                "Eq. (5) violation: core already hosts a thread");
  const Hertz required =
      requiredFrequency > 0.0 ? requiredFrequency : frequency;
  slot = MappedThread{ref, core, frequency, required};
  ++assignedCount_;
}

void Mapping::unassign(int core) {
  HAYAT_REQUIRE(core >= 0 && core < coreCount(), "core index out of range");
  auto& slot = coreThread_[static_cast<std::size_t>(core)];
  if (slot.has_value()) {
    slot.reset();
    --assignedCount_;
  }
}

void Mapping::migrate(int fromCore, int toCore) {
  HAYAT_REQUIRE(fromCore >= 0 && fromCore < coreCount() && toCore >= 0 &&
                    toCore < coreCount(),
                "core index out of range");
  HAYAT_REQUIRE(fromCore != toCore, "migration to the same core");
  auto& from = coreThread_[static_cast<std::size_t>(fromCore)];
  auto& to = coreThread_[static_cast<std::size_t>(toCore)];
  HAYAT_REQUIRE(from.has_value(), "no thread on the source core");
  HAYAT_REQUIRE(!to.has_value(), "destination core is busy");
  to = *from;
  to->core = toCore;
  from.reset();
}

void Mapping::setFrequency(int core, Hertz frequency) {
  HAYAT_REQUIRE(core >= 0 && core < coreCount(), "core index out of range");
  HAYAT_REQUIRE(frequency > 0.0, "operating frequency must be positive");
  auto& slot = coreThread_[static_cast<std::size_t>(core)];
  HAYAT_REQUIRE(slot.has_value(), "no thread on the core");
  slot->frequency = frequency;
}

void Mapping::restoreFrequency(int core) {
  HAYAT_REQUIRE(core >= 0 && core < coreCount(), "core index out of range");
  auto& slot = coreThread_[static_cast<std::size_t>(core)];
  HAYAT_REQUIRE(slot.has_value(), "no thread on the core");
  slot->frequency = slot->requiredFrequency;
}

bool Mapping::coreBusy(int core) const {
  HAYAT_REQUIRE(core >= 0 && core < coreCount(), "core index out of range");
  return coreThread_[static_cast<std::size_t>(core)].has_value();
}

const std::optional<MappedThread>& Mapping::onCore(int core) const {
  HAYAT_REQUIRE(core >= 0 && core < coreCount(), "core index out of range");
  return coreThread_[static_cast<std::size_t>(core)];
}

std::vector<MappedThread> Mapping::threads() const {
  std::vector<MappedThread> out;
  out.reserve(static_cast<std::size_t>(assignedCount_));
  for (const auto& slot : coreThread_)
    if (slot.has_value()) out.push_back(*slot);
  return out;
}

DarkCoreMap Mapping::toDarkCoreMap(const GridShape& grid) const {
  HAYAT_REQUIRE(grid.count() == coreCount(),
                "grid size must match the mapping");
  std::vector<bool> on(coreThread_.size(), false);
  for (std::size_t i = 0; i < coreThread_.size(); ++i)
    on[i] = coreThread_[i].has_value();
  return DarkCoreMap(grid, std::move(on));
}

void Mapping::slotsInto(const WorkloadMix& mix, Hertz nominalFrequency,
                        CoreSlots& out) const {
  HAYAT_REQUIRE(nominalFrequency > 0.0, "nominal frequency must be positive");
  const std::size_t n = coreThread_.size();
  out.busy.assign(n, 0);
  out.profile.assign(n, nullptr);
  out.powerScale.assign(n, 0.0);
  out.frequency.assign(n, 0.0);
  out.requiredFrequency.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& slot = coreThread_[i];
    if (!slot.has_value()) continue;
    out.busy[i] = 1;
    out.profile[i] =
        &mix.applications[static_cast<std::size_t>(slot->ref.app)].thread(
            slot->ref.thread);
    out.powerScale[i] = slot->frequency / nominalFrequency;
    out.frequency[i] = slot->frequency;
    out.requiredFrequency[i] = slot->requiredFrequency;
  }
}

Vector Mapping::averageDynamicPower(const WorkloadMix& mix,
                                    Hertz nominalFrequency) const {
  Vector power;
  averageDynamicPowerInto(mix, nominalFrequency, power);
  return power;
}

void Mapping::averageDynamicPowerInto(const WorkloadMix& mix,
                                      Hertz nominalFrequency,
                                      Vector& out) const {
  HAYAT_REQUIRE(nominalFrequency > 0.0, "nominal frequency must be positive");
  out.assign(coreThread_.size(), 0.0);
  for (std::size_t i = 0; i < coreThread_.size(); ++i) {
    const auto& slot = coreThread_[i];
    if (!slot.has_value()) continue;
    const Application& app =
        mix.applications[static_cast<std::size_t>(slot->ref.app)];
    out[i] = app.thread(slot->ref.thread).averagePower() *
             (slot->frequency / nominalFrequency);
  }
}

const HealthMap& PolicyContext::health() const {
  HAYAT_REQUIRE(chip != nullptr, "incomplete policy context");
  return observedHealth != nullptr ? *observedHealth : chip->health();
}

Mapping MappingPolicy::placeApplication(const PolicyContext& context,
                                        const Mapping& existing, int appIndex,
                                        int activeThreads) {
  // Default: no incremental support — reconsider the whole mix.
  (void)existing;
  (void)appIndex;
  (void)activeThreads;
  return map(context);
}

Hertz operatingFrequency(const PolicyContext& context, int core,
                         Hertz required) {
  const Hertz fmax = context.observedFmax(core);
  if (context.dvfs != nullptr)
    return context.dvfs->operatingLevel(required, fmax);
  return std::min(required, fmax);
}

std::vector<int> chooseParallelism(const WorkloadMix& mix, int maxOnCores) {
  HAYAT_REQUIRE(maxOnCores >= 1, "on-core budget must be >= 1");
  HAYAT_REQUIRE(!mix.applications.empty(), "empty workload mix");
  std::vector<int> k;
  k.reserve(mix.applications.size());
  int total = 0;
  for (const Application& a : mix.applications) {
    k.push_back(a.maxThreads());
    total += a.maxThreads();
  }
  // Malleable shrink: round-robin, one thread at a time, largest headroom
  // first would also work — round-robin keeps apps balanced.
  bool progress = true;
  while (total > maxOnCores && progress) {
    progress = false;
    for (std::size_t j = 0; j < k.size() && total > maxOnCores; ++j) {
      if (k[j] > mix.applications[j].minThreads()) {
        --k[j];
        --total;
        progress = true;
      }
    }
  }
  HAYAT_REQUIRE(total <= maxOnCores,
                "workload mix does not fit the on-core budget even at "
                "minimum parallelism");
  return k;
}

std::vector<RunnableThread> runnableThreads(
    const WorkloadMix& mix, const std::vector<int>& parallelism) {
  HAYAT_REQUIRE(parallelism.size() == mix.applications.size(),
                "parallelism vector must match the mix");
  std::vector<RunnableThread> out;
  for (std::size_t j = 0; j < mix.applications.size(); ++j) {
    const Application& app = mix.applications[j];
    const int kj = parallelism[j];
    HAYAT_REQUIRE(kj >= app.minThreads() && kj <= app.maxThreads(),
                  "parallelism outside the malleable range");
    for (int t = 0; t < kj; ++t) {
      RunnableThread rt;
      rt.ref = {static_cast<int>(j), t};
      rt.minFrequency = app.minFrequencyAt(t, kj);
      rt.averagePower = app.thread(t).averagePower();
      rt.peakPower = app.thread(t).peakPower();
      rt.averageDuty = app.thread(t).averageDuty();
      out.push_back(rt);
    }
  }
  return out;
}

}  // namespace hayat
