#include "arch/chip.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace hayat {

namespace {

std::vector<Hertz> initialFrequencies(const VariationMap& variation) {
  std::vector<Hertz> f(static_cast<std::size_t>(variation.coreCount()));
  for (int i = 0; i < variation.coreCount(); ++i)
    f[static_cast<std::size_t>(i)] = variation.coreInitialFmax(i);
  return f;
}

CorePathSet synthesizePaths(const ChipConfig& config, std::uint64_t seed) {
  Rng rng(seed ^ 0xA5A5A5A5DEADBEEFull);
  return CorePathSet::synthesize(rng, config.pathsPerCore,
                                 config.elementsPerPath);
}

/// Process-wide cache of aging tables, shared between same-recipe chips.
/// The paper calls the 3D table "only a start-up time effort for a given
/// chip"; a sweep's tasks rebuild the *same* chip (identical config and
/// seed) once per task, so without sharing every task pays the full
/// table-generation cost again.  Strong references with a small LRU cap.
///
/// The mutex guards only the entry list, never a build: a miss publishes
/// an in-flight entry and builds outside the lock, callers with the same
/// key wait on that one build, and callers with other keys build in
/// parallel.
struct SharedAgingTableCache {
  using Table = std::shared_future<std::shared_ptr<const AgingTable>>;
  struct Entry {
    std::string key;
    Table table;              ///< ready, or in flight on its builder
    std::uint64_t build = 0;  ///< which build published the entry
  };
  std::mutex mutex;
  std::vector<Entry> entries;  ///< most recently used at the back
  std::uint64_t builds = 0;
};

SharedAgingTableCache& sharedAgingTableCache() {
  static SharedAgingTableCache* cache =
      new SharedAgingTableCache();  // never destroyed
  return *cache;
}

constexpr std::size_t kSharedAgingTableCacheCap = 16;

/// Exact (%a — no rounding) rendering of a double for the cache key.
void appendExact(std::string& key, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a|", v);
  key += buf;
}

/// Everything AgingTable construction depends on: the NBTI recipe, the
/// table axes, and the synthesized critical-path netlist (a pure function
/// of pathsPerCore, elementsPerPath, and the chip seed).
std::string agingTableKey(const ChipConfig& config, std::uint64_t seed) {
  std::string key;
  key.reserve(256);
  appendExact(key, config.nbti.vdd);
  appendExact(key, config.nbti.nominalVth);
  appendExact(key, config.nbti.techScale);
  appendExact(key, config.nbti.alphaPower);
  appendExact(key, config.nbti.timeExponent);
  appendExact(key, config.agingTable.temperatureMin);
  appendExact(key, config.agingTable.temperatureMax);
  appendExact(key, config.agingTable.maxAge);
  key += std::to_string(config.agingTable.temperaturePoints) + "|" +
         std::to_string(config.agingTable.dutyPoints) + "|" +
         std::to_string(config.pathsPerCore) + "|" +
         std::to_string(config.elementsPerPath) + "|" +
         std::to_string(seed);
  return key;
}

void countAgingTableLookup(const char* name) {
  if (telemetry::enabled())
    telemetry::Registry::global().counter(name).add();
}

std::shared_ptr<const AgingTable> buildAgingTable(const ChipConfig& config,
                                                  const NbtiModel& nbti,
                                                  const CorePathSet& paths) {
  const telemetry::Span span("chip.aging_table");
  return std::make_shared<const AgingTable>(nbti, paths, config.agingTable);
}

std::shared_ptr<const AgingTable> obtainAgingTable(const ChipConfig& config,
                                                   const NbtiModel& nbti,
                                                   const CorePathSet& paths,
                                                   std::uint64_t seed) {
  // The scalar reference lane (HAYAT_SCALAR_AGING=1) models the seed
  // stack, which generated a fresh table per chip — it bypasses the
  // cache so A/B comparisons time the original start-up cost.  Tables
  // also record the env flag at construction, so a cached batched-mode
  // table must never be handed to a scalar-mode chip (or vice versa).
  if (scalarAgingRequested()) return buildAgingTable(config, nbti, paths);

  const std::string key = agingTableKey(config, seed);
  SharedAgingTableCache& shared = sharedAgingTableCache();
  SharedAgingTableCache::Table cached;
  std::promise<std::shared_ptr<const AgingTable>> promise;
  std::uint64_t build = 0;
  {
    const std::scoped_lock lock(shared.mutex);
    const auto it = std::find_if(
        shared.entries.begin(), shared.entries.end(),
        [&key](const SharedAgingTableCache::Entry& e) { return e.key == key; });
    if (it != shared.entries.end()) {
      cached = it->table;
      std::rotate(it, it + 1, shared.entries.end());  // refresh LRU position
      const bool ready = cached.wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready;
      countAgingTableLookup(ready ? "hayat_aging_table_shared_hits_total"
                                  : "hayat_aging_table_shared_waits_total");
    } else {
      countAgingTableLookup("hayat_aging_table_shared_misses_total");
      build = ++shared.builds;
      shared.entries.push_back({key, promise.get_future().share(), build});
      if (shared.entries.size() > kSharedAgingTableCacheCap)
        shared.entries.erase(shared.entries.begin());
    }
  }
  // Outside the lock: waits on an in-flight build, and rethrows the
  // builder's exception if that build failed.
  if (cached.valid()) return cached.get();

  try {
    auto table = buildAgingTable(config, nbti, paths);
    promise.set_value(table);
    return table;
  } catch (...) {
    // Unpublish before failing the waiters, so a later call retries the
    // build instead of inheriting this failure.
    {
      const std::scoped_lock lock(shared.mutex);
      const auto it = std::find_if(
          shared.entries.begin(), shared.entries.end(),
          [build](const SharedAgingTableCache::Entry& e) {
            return e.build == build;
          });
      if (it != shared.entries.end()) shared.entries.erase(it);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

}  // namespace

void Chip::clearSharedAgingTableCacheForTest() {
  SharedAgingTableCache& shared = sharedAgingTableCache();
  const std::scoped_lock lock(shared.mutex);
  shared.entries.clear();
}

Chip::Chip(ChipConfig config, VariationMap variation, std::uint64_t seed)
    : floorplan_(config.floorplan),
      variation_(std::move(variation)),
      nbti_(config.nbti),
      paths_(synthesizePaths(config, seed)),
      agingTable_(obtainAgingTable(config, nbti_, paths_, seed)),
      health_(initialFrequencies(variation_)) {
  HAYAT_REQUIRE(variation_.coreGrid().rows() == floorplan_.shape().rows() &&
                    variation_.coreGrid().cols() == floorplan_.shape().cols(),
                "variation map grid must match the floorplan");
}

Hertz Chip::chipFmax() const {
  Hertz best = 0.0;
  for (int i = 0; i < coreCount(); ++i) best = std::max(best, currentFmax(i));
  return best;
}

Hertz Chip::averageFmax() const {
  Hertz acc = 0.0;
  for (int i = 0; i < coreCount(); ++i) acc += currentFmax(i);
  return acc / coreCount();
}

void Chip::resetHealth() { health_ = HealthMap(initialFrequencies(variation_)); }

}  // namespace hayat
