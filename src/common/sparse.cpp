#include "common/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace hayat {

// --- SparseMatrix ---------------------------------------------------------

double SparseMatrix::at(int r, int c) const {
  HAYAT_REQUIRE(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                "sparse index out of range");
  const auto begin = colIndex_.begin() + rowStart_[static_cast<std::size_t>(r)];
  const auto end =
      colIndex_.begin() + rowStart_[static_cast<std::size_t>(r) + 1];
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - colIndex_.begin())];
}

void SparseMatrix::multiplyInto(const Vector& x, Vector& y) const {
  HAYAT_REQUIRE(static_cast<int>(x.size()) == cols_,
                "sparse matrix-vector dimension mismatch");
  y.resize(static_cast<std::size_t>(rows_));
  for (int r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const int end = rowStart_[static_cast<std::size_t>(r) + 1];
    for (int k = rowStart_[static_cast<std::size_t>(r)]; k < end; ++k)
      acc += values_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(colIndex_[static_cast<std::size_t>(k)])];
    y[static_cast<std::size_t>(r)] = acc;
  }
}

Vector SparseMatrix::multiply(const Vector& x) const {
  Vector y;
  multiplyInto(x, y);
  return y;
}

Matrix SparseMatrix::toDense() const {
  Matrix out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    const int end = rowStart_[static_cast<std::size_t>(r) + 1];
    for (int k = rowStart_[static_cast<std::size_t>(r)]; k < end; ++k)
      out(r, colIndex_[static_cast<std::size_t>(k)]) =
          values_[static_cast<std::size_t>(k)];
  }
  return out;
}

// --- SparseMatrixBuilder --------------------------------------------------

SparseMatrixBuilder::SparseMatrixBuilder(int rows, int cols)
    : rows_(rows), cols_(cols) {
  HAYAT_REQUIRE(rows >= 0 && cols >= 0, "negative matrix dimensions");
}

void SparseMatrixBuilder::add(int r, int c, double value) {
  HAYAT_REQUIRE(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                "triplet index out of range");
  triplets_.push_back({r, c, value});
}

SparseMatrix SparseMatrixBuilder::build() const {
  // Stable sort keeps duplicates in insertion order, so summing them
  // reproduces the equivalent dense `+=` sequence bitwise.
  std::vector<Triplet> sorted = triplets_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Triplet& a, const Triplet& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });

  SparseMatrix out;
  out.rows_ = rows_;
  out.cols_ = cols_;
  out.rowStart_.assign(static_cast<std::size_t>(rows_) + 1, 0);
  for (std::size_t i = 0; i < sorted.size();) {
    const int r = sorted[i].row;
    const int c = sorted[i].col;
    double acc = 0.0;
    while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c)
      acc += sorted[i++].value;
    out.colIndex_.push_back(c);
    out.values_.push_back(acc);
    ++out.rowStart_[static_cast<std::size_t>(r) + 1];
  }
  for (int r = 0; r < rows_; ++r)
    out.rowStart_[static_cast<std::size_t>(r) + 1] +=
        out.rowStart_[static_cast<std::size_t>(r)];
  return out;
}

bool denseSolverRequested() {
  const char* env = std::getenv("HAYAT_DENSE_SOLVER");
  return env != nullptr && env[0] == '1';
}

// --- Reverse Cuthill–McKee ------------------------------------------------

namespace {

/// One BFS pass from `start` over the CSR pattern; appends visited
/// vertices to `order` (neighbours by increasing (degree, index)) and
/// returns the index of a vertex in the last level (an eccentricity
/// witness, used to find a pseudo-peripheral seed).
int bfsOrder(const SparseMatrix& a, int start, std::vector<char>& seen,
             std::vector<int>& order) {
  const std::vector<int>& rowStart = a.rowStart();
  const std::vector<int>& colIndex = a.colIndex();
  auto degree = [&](int v) {
    return rowStart[static_cast<std::size_t>(v) + 1] -
           rowStart[static_cast<std::size_t>(v)];
  };

  const std::size_t first = order.size();
  order.push_back(start);
  seen[static_cast<std::size_t>(start)] = 1;
  std::size_t head = first;
  std::vector<int> neighbours;
  while (head < order.size()) {
    const int v = order[head++];
    neighbours.clear();
    const int end = rowStart[static_cast<std::size_t>(v) + 1];
    for (int k = rowStart[static_cast<std::size_t>(v)]; k < end; ++k) {
      const int u = colIndex[static_cast<std::size_t>(k)];
      if (u == v || seen[static_cast<std::size_t>(u)]) continue;
      seen[static_cast<std::size_t>(u)] = 1;
      neighbours.push_back(u);
    }
    std::sort(neighbours.begin(), neighbours.end(), [&](int x, int y) {
      const int dx = degree(x);
      const int dy = degree(y);
      return dx != dy ? dx < dy : x < y;
    });
    order.insert(order.end(), neighbours.begin(), neighbours.end());
  }
  return order.back();
}

}  // namespace

std::vector<int> reverseCuthillMcKee(const SparseMatrix& a) {
  HAYAT_REQUIRE(a.rows() == a.cols(), "RCM requires a square matrix");
  const int n = a.rows();
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> seen(static_cast<std::size_t>(n), 0);

  const std::vector<int>& rowStart = a.rowStart();
  auto degree = [&](int v) {
    return rowStart[static_cast<std::size_t>(v) + 1] -
           rowStart[static_cast<std::size_t>(v)];
  };

  while (static_cast<int>(order.size()) < n) {
    // Pick the minimum-degree unvisited vertex (each pass consumes one
    // whole component, so this covers every component of a disconnected
    // pattern), then hop to a far vertex once — a cheap
    // pseudo-peripheral heuristic.
    int seed = -1;
    for (int v = 0; v < n; ++v)
      if (!seen[static_cast<std::size_t>(v)] &&
          (seed < 0 || degree(v) < degree(seed)))
        seed = v;
    std::vector<char> probe = seen;
    std::vector<int> probeOrder;
    seed = bfsOrder(a, seed, probe, probeOrder);
    bfsOrder(a, seed, seen, order);
  }
  std::reverse(order.begin(), order.end());
  return order;
}

int bandwidthOf(const SparseMatrix& a, const std::vector<int>& perm) {
  HAYAT_REQUIRE(a.rows() == a.cols(), "bandwidth requires a square matrix");
  const int n = a.rows();
  std::vector<int> newIndexOf(static_cast<std::size_t>(n));
  if (perm.empty()) {
    for (int i = 0; i < n; ++i) newIndexOf[static_cast<std::size_t>(i)] = i;
  } else {
    HAYAT_REQUIRE(static_cast<int>(perm.size()) == n,
                  "permutation size mismatch");
    for (int i = 0; i < n; ++i)
      newIndexOf[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
          i;
  }
  int band = 0;
  for (int r = 0; r < n; ++r) {
    const int end = a.rowStart()[static_cast<std::size_t>(r) + 1];
    for (int k = a.rowStart()[static_cast<std::size_t>(r)]; k < end; ++k) {
      const int c = a.colIndex()[static_cast<std::size_t>(k)];
      band = std::max(band, std::abs(newIndexOf[static_cast<std::size_t>(r)] -
                                     newIndexOf[static_cast<std::size_t>(c)]));
    }
  }
  return band;
}

// --- BandedFactorization --------------------------------------------------

BandedFactorization::BandedFactorization(const SparseMatrix& a, int band)
    : n_(a.rows()),
      band_(band),
      band_data_(static_cast<std::size_t>(a.rows()) *
                     static_cast<std::size_t>(2 * band + 1),
                 0.0) {
  HAYAT_REQUIRE(a.rows() == a.cols(), "banded LU requires a square matrix");
  HAYAT_REQUIRE(band >= 0, "negative bandwidth");

  for (int r = 0; r < n_; ++r) {
    const int end = a.rowStart()[static_cast<std::size_t>(r) + 1];
    for (int k = a.rowStart()[static_cast<std::size_t>(r)]; k < end; ++k) {
      const int c = a.colIndex()[static_cast<std::size_t>(k)];
      HAYAT_REQUIRE(std::abs(r - c) <= band_,
                    "matrix entry outside the declared band");
      at(r, c) = a.values()[static_cast<std::size_t>(k)];
    }
  }

  // Right-looking elimination restricted to the band.  Update
  // expressions and zero-factor skips replicate LuFactorization's
  // no-swap path exactly (see sparse.hpp) so the factors match the dense
  // reference bitwise.  The inner loop is blocked two rows at a time:
  // within a fixed pivot k every (r, c) entry receives exactly one
  // update `at(r,c) -= factor_r * at(k,c)`, so sharing one traversal of
  // the pivot row between two target rows reorders independent updates
  // without changing any entry's operation sequence.
  for (int k = 0; k < n_; ++k) {
    const double pivot = at(k, k);
    HAYAT_REQUIRE(std::fabs(pivot) > 1e-300,
                  "zero pivot in banded LU (matrix not diagonally "
                  "dominant?)");
    const double inv = 1.0 / pivot;
    const int rEnd = std::min(n_ - 1, k + band_);
    if (rEnd <= k) continue;  // nothing below the pivot inside the band
    const int cEnd = rEnd;
    const int len = cEnd - k;  // columns k+1..cEnd, contiguous per row
    const double* rowK = &band_data_[bandIndex(k, k + 1)];
    int r = k + 1;
    for (; r + 1 <= rEnd; r += 2) {
      const double f0 = at(r, k) * inv;
      const double f1 = at(r + 1, k) * inv;
      at(r, k) = f0;
      at(r + 1, k) = f1;
      double* row0 = &band_data_[bandIndex(r, k + 1)];
      double* row1 = &band_data_[bandIndex(r + 1, k + 1)];
      if (f0 != 0.0 && f1 != 0.0) {
        for (int c = 0; c < len; ++c) {
          const double p = rowK[c];
          row0[c] -= f0 * p;
          row1[c] -= f1 * p;
        }
      } else if (f0 != 0.0) {
        for (int c = 0; c < len; ++c) row0[c] -= f0 * rowK[c];
      } else if (f1 != 0.0) {
        for (int c = 0; c < len; ++c) row1[c] -= f1 * rowK[c];
      }
    }
    for (; r <= rEnd; ++r) {
      const double factor = at(r, k) * inv;
      at(r, k) = factor;
      if (factor == 0.0) continue;
      double* row = &band_data_[bandIndex(r, k + 1)];
      for (int c = 0; c < len; ++c) row[c] -= factor * rowK[c];
    }
  }

  // Each row's profile inside the band: the leading (L) and trailing (U)
  // entries that elimination left at exact zero.
  lowerBegin_.resize(static_cast<std::size_t>(n_));
  upperEnd_.resize(static_cast<std::size_t>(n_));
  for (int r = 0; r < n_; ++r) {
    int first = std::max(0, r - band_);
    while (first < r && at(r, first) == 0.0) ++first;
    lowerBegin_[static_cast<std::size_t>(r)] = first;
    int last = std::min(n_ - 1, r + band_);
    while (last > r && at(r, last) == 0.0) --last;
    upperEnd_[static_cast<std::size_t>(r)] = last;
  }
}

void BandedFactorization::solveInPlace(Vector& x) const {
  HAYAT_REQUIRE(static_cast<int>(x.size()) == n_, "rhs size mismatch");
  // Forward substitution (unit lower triangle).
  for (int i = 0; i < n_; ++i) {
    double acc = x[static_cast<std::size_t>(i)];
    const int jBegin = std::max(0, i - band_);
    for (int j = jBegin; j < i; ++j)
      acc -= at(i, j) * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = acc;
  }
  // Back substitution.
  for (int i = n_ - 1; i >= 0; --i) {
    double acc = x[static_cast<std::size_t>(i)];
    const int jEnd = std::min(n_ - 1, i + band_);
    for (int j = i + 1; j <= jEnd; ++j)
      acc -= at(i, j) * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = acc / at(i, i);
  }
}

namespace {

/// Bitwise double equality (the fixed-point test must distinguish -0.0
/// from +0.0 and never equate distinct NaN payloads — exact replay is
/// the contract, not numeric closeness).
inline bool bitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

bool BandedFactorization::solvePermuted(Vector& x, Vector& scratch,
                                        const std::vector<int>& perm,
                                        const double* compare) const {
  HAYAT_DCHECK(static_cast<int>(x.size()) == n_);
  HAYAT_DCHECK(static_cast<int>(perm.size()) == n_);
  HAYAT_DCHECK(static_cast<int>(scratch.size()) >= n_);
  double* s = scratch.data();
  const int* p = perm.data();
  const int* lo = lowerBegin_.data();
  const int* hi = upperEnd_.data();
  // Forward substitution (unit lower triangle), two rows jammed per
  // traversal: row i+1's partial sums ride the same pass over s[] that
  // row i uses, and the gather x[perm[i]] replaces the pack pass.  Each
  // row runs over its profile [lo[i], i) only: the band entries before
  // it are exact zeros, whose terms subtract a zero and change nothing.
  // Each accumulator applies its subtractions in ascending j — exactly
  // the solveInPlace sequence minus those zero terms — so the jam
  // reorders only operations on *different* accumulators and every
  // element matches bitwise.
  int i = 0;
  for (; i + 1 < n_; i += 2) {
    double acc0 = x[static_cast<std::size_t>(p[i])];
    double acc1 = x[static_cast<std::size_t>(p[i + 1])];
    const int jb0 = lo[i];
    const int jb1 = lo[i + 1];
    const int shared = std::max(jb0, jb1);  // first column both rows use
    const int lead = std::min(shared, i);   // end of the one-row prefix
    for (int j = jb0; j < lead; ++j) acc0 -= at(i, j) * s[j];
    for (int j = jb1; j < lead; ++j) acc1 -= at(i + 1, j) * s[j];
    for (int j = shared; j < i; ++j) {
      const double v = s[j];
      acc0 -= at(i, j) * v;
      acc1 -= at(i + 1, j) * v;
    }
    s[i] = acc0;
    if (jb1 <= i) acc1 -= at(i + 1, i) * acc0;  // row i+1's last term
    s[i + 1] = acc1;
  }
  for (; i < n_; ++i) {
    double acc = x[static_cast<std::size_t>(p[i])];
    for (int j = lo[i]; j < i; ++j) acc -= at(i, j) * s[j];
    s[i] = acc;
  }
  // Back substitution over each row's profile (r, hi[r]].  Row i-1's
  // first subtraction uses the final x[i], which only exists after row
  // i completes, so rows cannot be jammed here without reordering row
  // i-1's ascending-j sequence; the sweep stays row-at-a-time with the
  // scatter (and the fixed-point compare) fused into the final write.
  bool equal = compare != nullptr;
  for (int r = n_ - 1; r >= 0; --r) {
    double acc = s[r];
    for (int j = r + 1; j <= hi[r]; ++j) acc -= at(r, j) * s[j];
    const double v = acc / at(r, r);
    s[r] = v;
    const auto dst = static_cast<std::size_t>(p[r]);
    if (equal && !bitsEqual(v, compare[dst])) equal = false;
    x[dst] = v;
  }
  return equal;
}

void BandedFactorization::solveManyInPlace(double* xs, int count) const {
  HAYAT_REQUIRE(count >= 0, "negative right-hand-side count");
  if (count == 0) return;
  const auto stride = static_cast<std::size_t>(count);
  // Forward substitution (unit lower triangle).  Per RHS this performs
  // the exact update sequence of solveInPlace — subtractions in
  // ascending j — with the k loop innermost over the interleaved RHS.
  for (int i = 0; i < n_; ++i) {
    double* xi = xs + static_cast<std::size_t>(i) * stride;
    const int jBegin = std::max(0, i - band_);
    for (int j = jBegin; j < i; ++j) {
      const double lij = at(i, j);
      const double* xj = xs + static_cast<std::size_t>(j) * stride;
      for (int k = 0; k < count; ++k) xi[k] -= lij * xj[k];
    }
  }
  // Back substitution.
  for (int i = n_ - 1; i >= 0; --i) {
    double* xi = xs + static_cast<std::size_t>(i) * stride;
    const int jEnd = std::min(n_ - 1, i + band_);
    for (int j = i + 1; j <= jEnd; ++j) {
      const double uij = at(i, j);
      const double* xj = xs + static_cast<std::size_t>(j) * stride;
      for (int k = 0; k < count; ++k) xi[k] -= uij * xj[k];
    }
    const double diag = at(i, i);
    for (int k = 0; k < count; ++k) xi[k] /= diag;
  }
}

void BandedFactorization::solveManyPermuted(std::vector<Vector>& xs,
                                            double* scratch,
                                            const std::vector<int>& perm) const {
  const int count = static_cast<int>(xs.size());
  if (count == 0) return;
  HAYAT_DCHECK(static_cast<int>(perm.size()) == n_);
  const auto stride = static_cast<std::size_t>(count);
  const int* p = perm.data();
  // Forward substitution with the gather fused into each row's first
  // touch: lane k of row i starts from xs[k][perm[i]] instead of a
  // pre-packed buffer.  Per RHS the subtraction order is the ascending-j
  // sequence of solveInPlace, so every lane matches a per-RHS solve
  // bitwise.
  for (int i = 0; i < n_; ++i) {
    double* si = scratch + static_cast<std::size_t>(i) * stride;
    const auto src = static_cast<std::size_t>(p[i]);
    for (int k = 0; k < count; ++k)
      si[k] = xs[static_cast<std::size_t>(k)][src];
    const int jBegin = std::max(0, i - band_);
    for (int j = jBegin; j < i; ++j) {
      const double lij = at(i, j);
      const double* sj = scratch + static_cast<std::size_t>(j) * stride;
      for (int k = 0; k < count; ++k) si[k] -= lij * sj[k];
    }
  }
  // Back substitution with the scatter fused into each row's final
  // divide: lane k's solution lands directly in xs[k][perm[i]].
  for (int i = n_ - 1; i >= 0; --i) {
    double* si = scratch + static_cast<std::size_t>(i) * stride;
    const int jEnd = std::min(n_ - 1, i + band_);
    for (int j = i + 1; j <= jEnd; ++j) {
      const double uij = at(i, j);
      const double* sj = scratch + static_cast<std::size_t>(j) * stride;
      for (int k = 0; k < count; ++k) si[k] -= uij * sj[k];
    }
    const double diag = at(i, i);
    const auto dst = static_cast<std::size_t>(p[i]);
    for (int k = 0; k < count; ++k) {
      const double v = si[k] / diag;
      si[k] = v;
      xs[static_cast<std::size_t>(k)][dst] = v;
    }
  }
}

Vector BandedFactorization::solve(const Vector& b) const {
  Vector x = b;
  solveInPlace(x);
  return x;
}

// --- RcSolver -------------------------------------------------------------

RcSolver::RcSolver(const SparseMatrix& a, std::vector<int> perm, Mode mode)
    : n_(a.rows()), perm_(std::move(perm)) {
  HAYAT_REQUIRE(a.rows() == a.cols(), "RcSolver requires a square matrix");
  if (perm_.empty()) perm_ = reverseCuthillMcKee(a);
  HAYAT_REQUIRE(static_cast<int>(perm_.size()) == n_,
                "permutation size mismatch");
  band_ = bandwidthOf(a, perm_);

  // Permute A into new labels: Ap(i, j) = A(perm[i], perm[j]).
  std::vector<int> newIndexOf(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i)
    newIndexOf[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
        i;
  SparseMatrixBuilder builder(n_, n_);
  for (int r = 0; r < n_; ++r) {
    const int end = a.rowStart()[static_cast<std::size_t>(r) + 1];
    for (int k = a.rowStart()[static_cast<std::size_t>(r)]; k < end; ++k)
      builder.add(newIndexOf[static_cast<std::size_t>(r)],
                  newIndexOf[static_cast<std::size_t>(
                      a.colIndex()[static_cast<std::size_t>(k)])],
                  a.values()[static_cast<std::size_t>(k)]);
  }
  const SparseMatrix permuted = builder.build();

  const bool dense =
      mode == Mode::Dense || (mode == Mode::Auto && denseSolverRequested());
  if (dense) {
    dense_ = std::make_unique<LuFactorization>(permuted.toDense());
  } else {
    banded_ = std::make_unique<BandedFactorization>(permuted, band_);
  }
}

void RcSolver::solveInPlace(Vector& x, Vector& scratch) const {
  HAYAT_REQUIRE(static_cast<int>(x.size()) == n_, "rhs size mismatch");
  scratch.resize(static_cast<std::size_t>(n_));
  HAYAT_DCHECK(static_cast<int>(scratch.size()) >= n_);
  if (banded_ != nullptr) {
    banded_->solvePermuted(x, scratch, perm_, nullptr);
    return;
  }
  for (int i = 0; i < n_; ++i)
    scratch[static_cast<std::size_t>(i)] =
        x[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
  scratch = dense_->solve(scratch);  // reference path; allocates
  HAYAT_DCHECK(static_cast<int>(scratch.size()) >= n_);
  for (int i = 0; i < n_; ++i)
    x[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
        scratch[static_cast<std::size_t>(i)];
}

bool RcSolver::solveInPlaceCompare(Vector& x, Vector& scratch,
                                   const Vector& compare) const {
  HAYAT_REQUIRE(static_cast<int>(x.size()) == n_, "rhs size mismatch");
  HAYAT_REQUIRE(static_cast<int>(compare.size()) == n_,
                "compare size mismatch");
  scratch.resize(static_cast<std::size_t>(n_));
  HAYAT_DCHECK(static_cast<int>(scratch.size()) >= n_);
  if (banded_ != nullptr)
    return banded_->solvePermuted(x, scratch, perm_, compare.data());
  // Dense reference twin: pack, solve, and fuse the bitwise compare
  // into the unpack pass so both backends report the same fixed point.
  for (int i = 0; i < n_; ++i)
    scratch[static_cast<std::size_t>(i)] =
        x[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
  scratch = dense_->solve(scratch);  // reference path; allocates
  HAYAT_DCHECK(static_cast<int>(scratch.size()) >= n_);
  bool equal = true;
  for (int i = 0; i < n_; ++i) {
    const auto dst = static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)]);
    const double v = scratch[static_cast<std::size_t>(i)];
    if (equal && std::memcmp(&v, &compare[dst], sizeof(double)) != 0)
      equal = false;
    x[dst] = v;
  }
  return equal;
}

void RcSolver::solveManyInPlace(std::vector<Vector>& xs,
                                Vector& scratch) const {
  const int count = static_cast<int>(xs.size());
  if (count == 0) return;
  for (const Vector& x : xs)
    HAYAT_REQUIRE(static_cast<int>(x.size()) == n_, "rhs size mismatch");
  if (dense_ != nullptr) {
    // Reference path: per-RHS dense solves (bitwise the A/B twin of the
    // batched banded sweep below).
    for (Vector& x : xs) solveInPlace(x, scratch);
    return;
  }

  // Fused-permutation batched sweep: the gather/scatter passes of the
  // old pack -> solveManyInPlace -> unpack path now ride the forward
  // and backward substitutions themselves.
  scratch.resize(static_cast<std::size_t>(n_) *
                 static_cast<std::size_t>(count));
  HAYAT_DCHECK(scratch.size() >= static_cast<std::size_t>(n_) *
                                     static_cast<std::size_t>(count));
  banded_->solveManyPermuted(xs, scratch.data(), perm_);
}

Vector RcSolver::solve(const Vector& b) const {
  Vector x = b;
  Vector scratch;
  solveInPlace(x, scratch);
  return x;
}

}  // namespace hayat
