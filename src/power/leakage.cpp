#include "power/leakage.hpp"

#include <type_traits>

#include "common/error.hpp"

namespace hayat {

LeakageModel::LeakageModel(LeakageConfig config, const VariationMap& variation)
    : config_(config), variation_(&variation) {
  HAYAT_REQUIRE(config.nominalCoreLeakage >= 0.0, "negative nominal leakage");
  HAYAT_REQUIRE(config.gatedCoreLeakage >= 0.0, "negative gated leakage");
  HAYAT_REQUIRE(config.referenceTemperature > 0.0,
                "reference temperature must be positive kelvin");
  referenceUnnormalized_ = unnormalized(config_.referenceTemperature);
}

double LeakageModel::temperatureFactor(Kelvin temperature) const {
  HAYAT_REQUIRE(temperature > 0.0, "temperature must be positive kelvin");
  return factor(temperature);
}

Watts LeakageModel::coreLeakageOn(int core, Kelvin temperature) const {
  HAYAT_REQUIRE(temperature > 0.0, "temperature must be positive kelvin");
  HAYAT_REQUIRE(core >= 0 && core < variation_->coreCount(),
                "core index out of range");
  return onLeakage(core, temperature);
}

Watts LeakageModel::coreLeakageGated() const {
  return config_.gatedCoreLeakage;
}

Watts LeakageModel::coreLeakage(int core, Kelvin temperature,
                                bool poweredOn) const {
  return poweredOn ? coreLeakageOn(core, temperature) : coreLeakageGated();
}

void LeakageModel::leakageInto(const Vector& temperatures,
                               const std::vector<unsigned char>& poweredOn,
                               Vector& out) const {
  const std::size_t n = static_cast<std::size_t>(variation_->coreCount());
  HAYAT_REQUIRE(temperatures.size() == n && poweredOn.size() == n,
                "leakage input size mismatch");
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (poweredOn[i] == 0) {
      out[i] = config_.gatedCoreLeakage;
      continue;
    }
    HAYAT_REQUIRE(temperatures[i] > 0.0,
                  "temperature must be positive kelvin");
    out[i] = onLeakage(static_cast<int>(i), temperatures[i]);
  }
}

namespace {
template <typename T>
void appendBytes(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}
}  // namespace

void LeakageModel::signatureInto(std::string& out) const {
  appendBytes(out, config_.nominalCoreLeakage);
  appendBytes(out, config_.gatedCoreLeakage);
  appendBytes(out, config_.referenceTemperature);
  appendBytes(out, config_.nominalVth);
  appendBytes(out, config_.subthresholdSlopeFactor);
  appendBytes(out, variation_->config().subthresholdSlopeFactor);
  const int cores = variation_->coreCount();
  appendBytes(out, cores);
  for (int c = 0; c < cores; ++c) {
    const std::vector<int>& pts = variation_->corePoints(c);
    appendBytes(out, static_cast<int>(pts.size()));
    for (int p : pts) appendBytes(out, variation_->pointVthDelta(p));
  }
}

}  // namespace hayat
