#include "runtime/epoch.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/alloc_counter.hpp"
#include "common/error.hpp"
#include "power/thermal_coupling.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace hayat {

namespace {
std::atomic<long> runCount{0};
std::atomic<std::uint64_t> stepLoopAllocs{0};
std::atomic<std::uint64_t> stepsSkipped{0};
std::atomic<std::uint64_t> memoHits{0};
std::atomic<std::uint64_t> memoMisses{0};

bool envFlagSet(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] == '1';
}

template <typename T>
void appendBytes(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Approximate resident size of one memo entry's value, for the
/// hayat_transient_cache_bytes gauge.
std::size_t epochResultBytes(const EpochResult& r) {
  return sizeof(EpochResult) +
         (r.averageTemperature.size() + r.peakTemperature.size() +
          r.duty.size()) *
             sizeof(double) +
         static_cast<std::size_t>(r.finalMapping.coreCount()) *
             sizeof(std::optional<MappedThread>);
}

/// Process-wide LRU of fine-grained windows — the trajectory memo of
/// DESIGN.md §3.13, mirroring the shared aging-table/Cholesky caches of
/// §3.10.  Keys are the exact bytes of every input the window trajectory
/// depends on (see buildMemoKey) — including the chip's health map, the
/// one piece of mutable state DTM enforcement reads — so a hit replays a
/// result that is byte-identical to re-simulating, DTM events and all.
/// Shared across engine threads behind one mutex; never destroyed so
/// worker threads may touch it during teardown.
class TrajectoryMemo {
 public:
  std::optional<EpochResult> lookup(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    entries_.splice(entries_.begin(), entries_, it->second);
    return entries_.front().second;
  }

  void store(const std::string& key, const EpochResult& value) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      // Same key ⇒ byte-identical value; just refresh recency.
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    entries_.emplace_front(key, value);
    index_.emplace(key, entries_.begin());
    bytes_ += key.size() * 2 + epochResultBytes(value);
    while (entries_.size() > kCapacity) {
      const auto& victim = entries_.back();
      bytes_ -= victim.first.size() * 2 + epochResultBytes(victim.second);
      index_.erase(victim.first);
      entries_.pop_back();
    }
    publishBytesLocked();
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    index_.clear();
    bytes_ = 0;
    publishBytesLocked();
  }

 private:
  void publishBytesLocked() const {
    if (telemetry::enabled())
      telemetry::Registry::global()
          .gauge("hayat_transient_cache_bytes")
          .set(static_cast<double>(bytes_));
  }

  static constexpr std::size_t kCapacity = 32;
  using Entry = std::pair<std::string, EpochResult>;
  std::mutex mutex_;
  std::list<Entry> entries_;  ///< front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::size_t bytes_ = 0;
};

TrajectoryMemo& trajectoryMemo() {
  static TrajectoryMemo* memo = new TrajectoryMemo;  // never destroyed
  return *memo;
}

/// Serializes every input the fine-grained window trajectory depends on.
/// Exact bytes, no hashing: a collision would silently break the bitwise
/// contract, so equality is literal.  run() reads exactly these and
/// nothing else: the thermal operator, the solver backend, the leakage
/// model (config + per-core Vth deltas), the epoch config, the step
/// count, the initial mapping, the workload mix, and — only inside
/// dtm.enforce() — the chip's health map, captured here as each core's
/// (initial fmax, delay factor) pair.
void buildMemoKey(std::string& key, const ThermalModel& thermal,
                  bool denseSolver, const LeakageModel& leakage,
                  const EpochConfig& config, int steps, const Mapping& mapping,
                  const WorkloadMix& mix, const HealthMap& health) {
  key += thermal.configSignature();
  key += '\0';
  appendBytes(key, denseSolver);
  appendBytes(key, config.window);
  appendBytes(key, config.step);
  appendBytes(key, config.nominalFrequency);
  appendBytes(key, config.dtm.tsafe);
  appendBytes(key, config.dtm.coldMargin);
  appendBytes(key, config.dtm.throttleFactor);
  appendBytes(key, config.dtm.minimumFrequency);
  appendBytes(key, config.dtm.migrationCooldownChecks);
  appendBytes(key, config.thermalSensorNoise.gaussianSigma);
  appendBytes(key, config.thermalSensorNoise.quantization);
  appendBytes(key, config.thermalSensorSeed);
  appendBytes(key, steps);
  leakage.signatureInto(key);
  const int n = mapping.coreCount();
  appendBytes(key, n);
  for (int i = 0; i < n; ++i) {
    appendBytes(key, health.initialFmax(i));
    appendBytes(key, health.state(i).delayFactor());
  }
  for (int i = 0; i < n; ++i) {
    const auto& slot = mapping.onCore(i);
    appendBytes(key, slot.has_value());
    if (!slot.has_value()) continue;
    appendBytes(key, slot->ref.app);
    appendBytes(key, slot->ref.thread);
    appendBytes(key, slot->frequency);
    appendBytes(key, slot->requiredFrequency);
  }
  appendBytes(key, static_cast<int>(mix.applications.size()));
  for (const Application& app : mix.applications) {
    appendBytes(key, app.maxThreads());
    for (int k = 0; k < app.maxThreads(); ++k) {
      const ThreadProfile& profile = app.thread(k);
      appendBytes(key, profile.phaseCount());
      for (int ph = 0; ph < profile.phaseCount(); ++ph) {
        const ThreadPhase& phase = profile.phase(ph);
        appendBytes(key, phase.duration);
        appendBytes(key, phase.dynamicPower);
        appendBytes(key, phase.dutyCycle);
        appendBytes(key, phase.ipc);
      }
    }
  }
}
}  // namespace

long epochSimulatorRunCount() { return runCount.load(); }

std::uint64_t epochStepLoopAllocs() { return stepLoopAllocs.load(); }

std::uint64_t epochStepsSkipped() { return stepsSkipped.load(); }

std::uint64_t transientMemoHits() { return memoHits.load(); }

std::uint64_t transientMemoMisses() { return memoMisses.load(); }

void clearTransientMemoForTest() { trajectoryMemo().clear(); }

EpochSimulator::EpochSimulator(const Chip& chip, const ThermalModel& thermal,
                               const LeakageModel& leakage, EpochConfig config)
    : chip_(&chip),
      thermal_(&thermal),
      leakage_(&leakage),
      config_(config),
      solver_(thermal, config.step) {
  HAYAT_REQUIRE(config.window > 0.0, "window must be positive");
  HAYAT_REQUIRE(config.step > 0.0 && config.step <= config.window,
                "step must be positive and within the window");
  HAYAT_REQUIRE(thermal.coreCount() == chip.coreCount(),
                "thermal model size must match the chip");
}

EpochResult EpochSimulator::run(const Mapping& initialMapping,
                                const WorkloadMix& mix) const {
  runCount.fetch_add(1, std::memory_order_relaxed);
  static std::atomic<std::uint64_t> windowSpanSite{0};
  const telemetry::Span windowSpan("epoch.window",
                                   telemetry::sampleSpanSite(windowSpanSite));
  const std::uint64_t windowT0 =
      telemetry::enabled() ? telemetry::nowNanos() : 0;
  const int n = chip_->coreCount();
  HAYAT_REQUIRE(initialMapping.coreCount() == n, "mapping size mismatch");

  const int steps = std::max(1, static_cast<int>(
                                    std::llround(config_.window / config_.step)));

  // Trajectory memo (§3.13): a repeated (operator, config, mapping, mix)
  // window replays its stored result byte-identically — including the
  // coupled-steady-state warm start, the costliest single solve.
  const bool memoEnabled = !envFlagSet("HAYAT_NO_THERMAL_MEMO");
  thread_local std::string memoKey;
  if (memoEnabled) {
    memoKey.clear();
    buildMemoKey(memoKey, *thermal_,
                 thermal_->transientOperator(config_.step).solver.usesDense(),
                 *leakage_, config_, steps, initialMapping, mix,
                 chip_->health());
    if (std::optional<EpochResult> cached = trajectoryMemo().lookup(memoKey)) {
      memoHits.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::enabled()) {
        static telemetry::Counter& hits =
            telemetry::Registry::global().counter("hayat_transient_cache_hits");
        hits.add();
      }
      return *std::move(cached);
    }
    memoMisses.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      static telemetry::Counter& misses =
          telemetry::Registry::global().counter("hayat_transient_cache_misses");
      misses.add();
    }
  }

  Mapping mapping = initialMapping;
  DtmManager dtm(config_.dtm);
  const ThermalSensor thermalSensor(config_.thermalSensorNoise);
  const bool noisySensors =
      config_.thermalSensorNoise.gaussianSigma > 0.0 ||
      config_.thermalSensorNoise.quantization > 0.0;
  Rng sensorRng(config_.thermalSensorSeed);

  // Per-window flat state (DESIGN.md §3.8): the mapping's slots as
  // contiguous arrays, rebuilt only when the DTM changes the mapping.
  CoreSlots slots;
  mapping.slotsInto(mix, config_.nominalFrequency, slots);

  // Warm start: the chip has been executing this workload, so begin from
  // the coupled steady state of the mapping's average power.  The
  // coupled solver hands out the node temperatures of its final solve,
  // so no second full-network solve is needed.
  Vector nodeTemps;
  {
    const std::vector<bool> on(slots.busy.begin(), slots.busy.end());
    CoupledOperatingPoint op = solveCoupledSteadyState(
        *thermal_, *leakage_,
        mapping.averageDynamicPower(mix, config_.nominalFrequency), on);
    nodeTemps = std::move(op.nodeTemperatures);
  }

  EpochResult result{Vector(static_cast<std::size_t>(n), 0.0),
                     Vector(static_cast<std::size_t>(n), 0.0),
                     std::vector<double>(static_cast<std::size_t>(n), 0.0),
                     0.0,
                     0.0,
                     {},
                     0,
                     0,
                     0.0,
                     0.0,
                     mapping};

  double tempTimeAccum = 0.0;

  // Fixed-point early exit (§3.13): once a step reproduces its input
  // temperatures bitwise under unchanged power, later identical-power
  // steps are provably byte-identical and are replayed without a solve.
  // Disabled for noisy sensors (the per-step RNG draws must advance) and
  // under the HAYAT_NO_THERMAL_EARLYEXIT=1 twin.
  const bool earlyExitEnabled =
      !noisySensors && !envFlagSet("HAYAT_NO_THERMAL_EARLYEXIT");

  // Pre-warm every buffer the step loop touches so the loop itself is
  // allocation-free in steady state (the DESIGN.md §3.8 contract; the
  // delta is tracked in epochStepLoopAllocs / hayat_epoch_step_allocs).
  Vector corePower;
  Vector coreTemps;
  Vector readings;
  Vector stepScratch;
  Vector solveScratch;
  Vector fixedPower;
  std::vector<const ThreadPhase*> phases(static_cast<std::size_t>(n),
                                         nullptr);
  corePower.resize(static_cast<std::size_t>(n));
  thermal_->coreTemperaturesInto(nodeTemps, coreTemps);
  if (noisySensors) readings.resize(static_cast<std::size_t>(n));
  stepScratch.resize(static_cast<std::size_t>(thermal_->nodeCount()));
  if (earlyExitEnabled) {
    solveScratch.resize(static_cast<std::size_t>(thermal_->nodeCount()));
    fixedPower.resize(static_cast<std::size_t>(n));
  }
  std::uint64_t skippedLocal = 0;
  bool atFixedPoint = false;
  const std::uint64_t allocsBefore = heapAllocationCount();

  // Each busy core's phase at `now`, resolved once per step and shared
  // by the power and accounting loops.
  auto resolvePhases = [&](Seconds now) {
    for (std::size_t i = 0; i < phases.size(); ++i)
      phases[i] = slots.busy[i] != 0 ? &slots.profile[i]->phaseAt(now)
                                     : nullptr;
  };
  // DTM check at the sensed temperatures; a changed mapping refreshes
  // the flat state and the phases of the threads it moved.
  auto runDtm = [&](const Vector& sensed, Seconds now) {
    if (dtm.evaluate(mapping, slots, sensed, chip_->health())) {
      mapping.slotsInto(mix, config_.nominalFrequency, slots);
      resolvePhases(now);
    }
  };

  for (int s = 0; s < steps; ++s) {
    const Seconds now = s * config_.step;

    // Per-core power for this step: leakage at the present temperatures
    // (the 6.6 ms leakage update of Section V) plus, on busy cores, the
    // phased dynamic power — the same sum as dynamic + leakage, since
    // IEEE addition commutes exactly.
    resolvePhases(now);
    leakage_->leakageInto(coreTemps, slots.busy, corePower);
    for (std::size_t i = 0; i < phases.size(); ++i)
      if (phases[i] != nullptr)
        corePower[i] =
            phases[i]->dynamicPower * slots.powerScale[i] + corePower[i];

    if (atFixedPoint &&
        std::memcmp(corePower.data(), fixedPower.data(),
                    static_cast<std::size_t>(n) * sizeof(double)) == 0) {
      // Same input temperatures (bitwise fixed point) and same power
      // bytes ⇒ the solve would reproduce the temperatures exactly and
      // the DTM-quiet evaluation would again be a no-op; skip both and
      // replay only the accounting below (which reads the phase at
      // `now`, so phase changes invisible to the power vector — equal
      // watts, different IPC — still account correctly).
      ++skippedLocal;
    } else {
      atFixedPoint = false;
      const bool dtmQuiet =
          dtm.stats().events() == 0 && dtm.stats().restores == 0;
      if (earlyExitEnabled && dtmQuiet) {
        const bool reachedFixedPoint = solver_.stepInPlaceDetect(
            nodeTemps, corePower, stepScratch, solveScratch);
        thermal_->coreTemperaturesInto(nodeTemps, coreTemps);
        runDtm(coreTemps, now);
        // Arm the skip only while the DTM has never acted: with an empty
        // migration history its tick counter is unobservable, so skipped
        // evaluations cannot skew later cooldown decisions.
        if (reachedFixedPoint && dtm.stats().events() == 0 &&
            dtm.stats().restores == 0) {
          atFixedPoint = true;
          fixedPower = corePower;  // same size: buffer reused, no alloc
        }
      } else {
        solver_.stepInPlace(nodeTemps, corePower, stepScratch);
        thermal_->coreTemperaturesInto(nodeTemps, coreTemps);

        // DTM check at the sensor temperatures (noisy if configured; the
        // accounting below always records the true temperatures).  Every
        // reading is drawn on every step, acted on or not.
        if (noisySensors) {
          for (int i = 0; i < n; ++i)
            readings[static_cast<std::size_t>(i)] = thermalSensor.read(
                coreTemps[static_cast<std::size_t>(i)], sensorRng);
          runDtm(readings, now);
        } else {
          runDtm(coreTemps, now);
        }
      }
    }

    // Accounting.
    bool throttled = false;
    for (int i = 0; i < n; ++i) {
      const auto si = static_cast<std::size_t>(i);
      result.averageTemperature[si] += coreTemps[si];
      result.peakTemperature[si] =
          std::max(result.peakTemperature[si], coreTemps[si]);
      result.chipPeak = std::max(result.chipPeak, coreTemps[si]);
      tempTimeAccum += coreTemps[si];
      if (const ThreadPhase* phase = phases[si]) {
        result.duty[si] += phase->dutyCycle;
        result.achievedIps += phase->ipc * slots.frequency[si];
        result.requiredIps += phase->ipc * slots.requiredFrequency[si];
        if (slots.frequency[si] < slots.requiredFrequency[si])
          throttled = true;
      }
    }
    if (throttled) ++result.throttledSteps;
  }

  const std::uint64_t loopAllocs = heapAllocationCount() - allocsBefore;
  stepLoopAllocs.fetch_add(loopAllocs, std::memory_order_relaxed);
  if (skippedLocal > 0)
    stepsSkipped.fetch_add(skippedLocal, std::memory_order_relaxed);

  for (int i = 0; i < n; ++i) {
    const auto si = static_cast<std::size_t>(i);
    result.averageTemperature[si] /= steps;
    result.duty[si] /= steps;
  }
  result.chipTimeAverage = tempTimeAccum / (static_cast<double>(steps) * n);
  result.achievedIps /= steps;
  result.requiredIps /= steps;
  result.dtm = dtm.stats();
  result.totalSteps = steps;
  result.finalMapping = mapping;

  // Every input the trajectory read — health map included — is in the
  // key, so any window replays exactly (see TrajectoryMemo).
  if (memoEnabled) trajectoryMemo().store(memoKey, result);

  if (telemetry::enabled()) {
    static telemetry::Counter& windows =
        telemetry::Registry::global().counter("hayat_epoch_windows_total");
    static telemetry::Counter& stepAllocs =
        telemetry::Registry::global().counter("hayat_epoch_step_allocs");
    static telemetry::Counter& skipped =
        telemetry::Registry::global().counter("hayat_epoch_steps_skipped");
    static telemetry::Histogram& duration =
        telemetry::Registry::global().histogram(
            "hayat_epoch_window_seconds",
            {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0});
    windows.add();
    if (loopAllocs > 0) stepAllocs.add(loopAllocs);
    if (skippedLocal > 0) skipped.add(static_cast<double>(skippedLocal));
    if (windowT0 != 0)
      duration.observe(static_cast<double>(telemetry::nowNanos() - windowT0) *
                       1e-9);
  }
  return result;
}

}  // namespace hayat
