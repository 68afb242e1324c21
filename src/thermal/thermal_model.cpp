#include "thermal/thermal_model.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace hayat {

namespace {

/// Series combination of two thermal conductances.
double seriesG(double a, double b) {
  HAYAT_DCHECK(a > 0.0 && b > 0.0);
  return a * b / (a + b);
}

std::string fmtSig(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Process-wide (geometry, dt) -> factored operator cache.  Sweeps build
/// a fresh System (and so a fresh ThermalModel) per task, all with the
/// same package; without sharing, every task would re-factor the same
/// implicit-Euler matrix.  Strong references with a small LRU cap: the
/// cache keeps recent operators alive across the serial task boundary
/// where no model holds them.
struct SharedTransientCache {
  std::mutex mutex;
  /// Most recently used at the back.
  std::vector<std::pair<std::string,
                        std::shared_ptr<const ThermalModel::TransientOperator>>>
      entries;
};

SharedTransientCache& sharedTransientCache() {
  static SharedTransientCache* cache =
      new SharedTransientCache();  // never destroyed
  return *cache;
}

constexpr std::size_t kSharedTransientCacheCap = 32;

}  // namespace

void ThermalModel::clearSharedTransientCacheForTest() {
  SharedTransientCache& shared = sharedTransientCache();
  const std::scoped_lock lock(shared.mutex);
  shared.entries.clear();
}

ThermalModel::ThermalModel(ThermalConfig config)
    : config_(std::move(config)), cores_(config_.floorplan.coreCount()) {
  HAYAT_REQUIRE(cores_ > 0, "thermal model needs at least one core");
  HAYAT_REQUIRE(config_.convectionResistance > 0.0,
                "convection resistance must be positive");
  build();
}

void ThermalModel::build() {
  const int n = nodeCount();
  const FloorPlan& fp = config_.floorplan;
  const GridShape& grid = fp.shape();
  const double tileArea = fp.tileArea();

  SparseMatrixBuilder builder(n, n);
  cap_.assign(static_cast<std::size_t>(n), 0.0);
  ambientLoad_.assign(static_cast<std::size_t>(n), 0.0);

  auto addConductance = [&](int a, int b, double gval) {
    HAYAT_DCHECK(gval > 0.0);
    builder.add(a, a, gval);
    builder.add(b, b, gval);
    builder.add(a, b, -gval);
    builder.add(b, a, -gval);
  };

  // Lateral conductance between adjacent tiles inside one layer:
  // G = k * (thickness * crossWidth) / centerDistance.
  auto lateralG = [&](double conductivity, double thickness, int a, int b) {
    const TilePos pa = grid.posOf(a);
    const TilePos pb = grid.posOf(b);
    const bool horizontal = pa.row == pb.row;
    const double crossWidth = horizontal ? fp.tileHeight() : fp.tileWidth();
    const double dist = horizontal ? fp.tileWidth() : fp.tileHeight();
    return conductivity * thickness * crossWidth / dist;
  };

  const int dieBase = 0;
  const int sprBase = cores_;
  const int sinkBase = 2 * cores_;

  // Intra-layer lateral conduction (visit each undirected edge once).
  for (int i = 0; i < cores_; ++i) {
    for (int j : grid.neighbors4(i)) {
      if (j <= i) continue;
      addConductance(dieBase + i, dieBase + j,
                     lateralG(config_.dieConductivity, config_.dieThickness,
                              i, j));
      addConductance(sprBase + i, sprBase + j,
                     lateralG(config_.spreaderConductivity,
                              config_.spreaderThickness, i, j));
      addConductance(sinkBase + i, sinkBase + j,
                     lateralG(config_.sinkConductivity, config_.sinkThickness,
                              i, j));
    }
  }

  // Vertical die -> spreader: half the die slab in series with the TIM and
  // half the spreader slab.
  const double gDieHalf =
      config_.dieConductivity * tileArea / (0.5 * config_.dieThickness);
  const double gTim = config_.timConductivity * tileArea / config_.timThickness;
  const double gSprHalf = config_.spreaderConductivity * tileArea /
                          (0.5 * config_.spreaderThickness);
  const double gDieSpr = seriesG(seriesG(gDieHalf, gTim), gSprHalf);

  // Vertical spreader -> sink: half spreader + mounting interface + half
  // sink slab.
  const double gMount = 1.0 / config_.spreaderSinkResistancePerTile;
  const double gSinkHalf =
      config_.sinkConductivity * tileArea / (0.5 * config_.sinkThickness);
  const double gSprSink = seriesG(seriesG(gSprHalf, gMount), gSinkHalf);

  // Sink -> ambient convection, package resistance shared by tile area.
  const double gConvPerTile =
      1.0 / (config_.convectionResistance * cores_);

  for (int i = 0; i < cores_; ++i) {
    addConductance(dieBase + i, sprBase + i, gDieSpr);
    addConductance(sprBase + i, sinkBase + i, gSprSink);
    // Convection is a conductance to the fixed ambient temperature: it
    // contributes to the diagonal and to the constant load vector.
    builder.add(sinkBase + i, sinkBase + i, gConvPerTile);
    ambientLoad_[static_cast<std::size_t>(sinkBase + i)] =
        gConvPerTile * config_.ambient;

    cap_[static_cast<std::size_t>(dieBase + i)] =
        config_.dieVolumetricHeat * tileArea * config_.dieThickness;
    cap_[static_cast<std::size_t>(sprBase + i)] =
        config_.spreaderVolumetricHeat * tileArea * config_.spreaderThickness;
    cap_[static_cast<std::size_t>(sinkBase + i)] =
        config_.sinkVolumetricHeat * tileArea * config_.sinkThickness;
  }

  sparse_ = builder.build();
  g_ = sparse_.toDense();
  perm_ = reverseCuthillMcKee(sparse_);
  // The backend is resolved once per model so the steady solver, the
  // transient operators, and the shared-cache key all agree.
  mode_ = denseSolverRequested() ? RcSolver::Mode::Dense
                                 : RcSolver::Mode::Banded;
  steadySolver_ = std::make_unique<RcSolver>(sparse_, perm_, mode_);

  // Signature of everything that shaped g_ / cap_ / ambientLoad_ above:
  // same signature implies identical matrices, so transient operators
  // are interchangeable across models.
  signature_ = std::to_string(grid.rows()) + "x" +
               std::to_string(grid.cols()) + "," + fmtSig(fp.tileWidth()) +
               "," + fmtSig(fp.tileHeight()) + "," + fmtSig(config_.ambient) +
               "," + fmtSig(config_.dieThickness) + "," +
               fmtSig(config_.dieConductivity) + "," +
               fmtSig(config_.dieVolumetricHeat) + "," +
               fmtSig(config_.timThickness) + "," +
               fmtSig(config_.timConductivity) + "," +
               fmtSig(config_.spreaderThickness) + "," +
               fmtSig(config_.spreaderConductivity) + "," +
               fmtSig(config_.spreaderVolumetricHeat) + "," +
               fmtSig(config_.sinkThickness) + "," +
               fmtSig(config_.sinkConductivity) + "," +
               fmtSig(config_.sinkVolumetricHeat) + "," +
               fmtSig(config_.spreaderSinkResistancePerTile) + "," +
               fmtSig(config_.convectionResistance);
}

Vector ThermalModel::steadyState(const Vector& corePower) const {
  Vector out;
  Vector scratch;
  steadyStateInto(corePower, out, scratch);
  return out;
}

void ThermalModel::steadyStateInto(const Vector& corePower, Vector& out,
                                   Vector& scratch) const {
  HAYAT_REQUIRE(static_cast<int>(corePower.size()) == cores_,
                "power vector size must equal core count");
  // Power enters at die nodes [0, N) only.
  out.assign(static_cast<std::size_t>(nodeCount()), 0.0);
  for (int i = 0; i < cores_; ++i) {
    HAYAT_REQUIRE(corePower[static_cast<std::size_t>(i)] >= 0.0,
                  "negative core power");
    out[static_cast<std::size_t>(i)] = corePower[static_cast<std::size_t>(i)];
  }
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += ambientLoad_[i];
  steadySolver_->solveInPlace(out, scratch);
}

Vector ThermalModel::coreTemperatures(const Vector& nodeTemperatures) const {
  HAYAT_REQUIRE(static_cast<int>(nodeTemperatures.size()) == nodeCount(),
                "node temperature vector size mismatch");
  return Vector(nodeTemperatures.begin(), nodeTemperatures.begin() + cores_);
}

void ThermalModel::coreTemperaturesInto(const Vector& nodeTemperatures,
                                        Vector& out) const {
  HAYAT_REQUIRE(static_cast<int>(nodeTemperatures.size()) == nodeCount(),
                "node temperature vector size mismatch");
  out.resize(static_cast<std::size_t>(cores_));
  for (int i = 0; i < cores_; ++i)
    out[static_cast<std::size_t>(i)] =
        nodeTemperatures[static_cast<std::size_t>(i)];
}

Vector ThermalModel::steadyStateCoreTemperatures(const Vector& corePower) const {
  return coreTemperatures(steadyState(corePower));
}

const ThermalModel::TransientOperator& ThermalModel::transientOperator(
    Seconds dt) const {
  HAYAT_REQUIRE(dt > 0.0, "transient step must be positive");
  const std::scoped_lock lock(transientMutex_);
  for (const auto& op : transientCache_)
    if (op->dt == dt) return *op;

  // First time this model sees `dt`: consult the process-wide cache so
  // Systems with identical thermal geometry reuse one factorization.
  // The backend is part of the key so banded and dense-reference runs
  // in one process never hand each other the wrong operator.
  const std::string key =
      signature_ + "|dt=" + fmtSig(dt) +
      (mode_ == RcSolver::Mode::Dense ? "|solver=dense" : "|solver=band");
  SharedTransientCache& shared = sharedTransientCache();
  const std::scoped_lock sharedLock(shared.mutex);
  for (std::size_t i = 0; i < shared.entries.size(); ++i) {
    if (shared.entries[i].first != key) continue;
    auto entry = shared.entries[i];
    shared.entries.erase(shared.entries.begin() +
                         static_cast<std::ptrdiff_t>(i));
    shared.entries.push_back(entry);  // refresh LRU position
    if (telemetry::enabled()) {
      static telemetry::Counter& hits = telemetry::Registry::global().counter(
          "hayat_thermal_lu_shared_hits_total");
      hits.add();
    }
    transientCache_.push_back(entry.second);
    return *transientCache_.back();
  }

  if (telemetry::enabled()) {
    static telemetry::Counter& misses = telemetry::Registry::global().counter(
        "hayat_thermal_lu_shared_misses_total");
    misses.add();
  }
  std::shared_ptr<const TransientOperator> op;
  {
    const telemetry::Span span("thermal.lu_factor");
    const int n = nodeCount();
    Vector capOverDt(static_cast<std::size_t>(n));
    SparseMatrix a = sparse_;
    std::vector<double>& values = a.mutableValues();
    for (int i = 0; i < n; ++i) {
      const double c = cap_[static_cast<std::size_t>(i)] / dt;
      capOverDt[static_cast<std::size_t>(i)] = c;
      const int end = a.rowStart()[static_cast<std::size_t>(i) + 1];
      for (int k = a.rowStart()[static_cast<std::size_t>(i)]; k < end; ++k) {
        if (a.colIndex()[static_cast<std::size_t>(k)] != i) continue;
        values[static_cast<std::size_t>(k)] += c;
        break;
      }
    }
    op = std::make_shared<const TransientOperator>(dt, std::move(capOverDt),
                                                   a, perm_, mode_);
  }
  shared.entries.emplace_back(key, op);
  if (shared.entries.size() > kSharedTransientCacheCap)
    shared.entries.erase(shared.entries.begin());
  transientCache_.push_back(std::move(op));
  return *transientCache_.back();
}

const Matrix& ThermalModel::coreInfluenceMatrix() const {
  if (!influence_) {
    auto k = std::make_unique<Matrix>(cores_, cores_);
    // One multi-RHS sweep over all unit loads: the factor band is
    // traversed once for all columns instead of once per column.
    std::vector<Vector> responses(
        static_cast<std::size_t>(cores_),
        Vector(static_cast<std::size_t>(nodeCount()), 0.0));
    for (int j = 0; j < cores_; ++j)
      responses[static_cast<std::size_t>(j)][static_cast<std::size_t>(j)] =
          1.0;
    Vector scratch;
    steadySolver_->solveManyInPlace(responses, scratch);
    for (int j = 0; j < cores_; ++j)
      for (int i = 0; i < cores_; ++i)
        (*k)(i, j) =
            responses[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
    influence_ = std::move(k);
  }
  return *influence_;
}

const ThermalModel::InfluenceProfile& ThermalModel::coreInfluenceProfile()
    const {
  if (!influenceProfile_) {
    const Matrix& k = coreInfluenceMatrix();
    auto p = std::make_unique<InfluenceProfile>();
    p->transposed = k.transposed();
    p->columnSums.resize(static_cast<std::size_t>(cores_));
    p->columnMaxOff.resize(static_cast<std::size_t>(cores_));
    for (int c = 0; c < cores_; ++c) {
      const double* col = p->transposed.data().data() +
                          static_cast<std::size_t>(c) *
                              static_cast<std::size_t>(cores_);
      double sum = 0.0;
      double off = 0.0;  // conservative floor; exact for a 1-core die
      for (int i = 0; i < cores_; ++i) {
        sum += col[i];
        if (i != c) off = std::max(off, col[i]);
      }
      p->columnSums[static_cast<std::size_t>(c)] = sum;
      p->columnMaxOff[static_cast<std::size_t>(c)] = off;
    }
    influenceProfile_ = std::move(p);
  }
  return *influenceProfile_;
}

}  // namespace hayat
