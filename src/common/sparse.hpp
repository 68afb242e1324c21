// Sparse linear algebra for the RC thermal networks.
//
// The thermal conductance matrices are structurally sparse — at most
// seven nonzeros per row (four lateral neighbours, vertical couplings,
// diagonal) — while matrix.hpp treats them as dense.  That wastes O(n^3)
// factorization and O(n^2) solve work, and the gap explodes for the
// grid-resolution model (a 16x16 chip at subdivision 4 has 4k+ nodes).
//
// This module provides the fast path:
//
//   SparseMatrix            CSR storage with allocation-free SpMV
//   reverseCuthillMcKee     bandwidth-reducing node ordering
//   BandedFactorization     no-pivot LU confined to the band
//   RcSolver                permutation wrapper that selects the banded
//                           kernel or the dense reference LU
//
// Numerical-equivalence contract: BandedFactorization performs the
// *identical* floating-point operations, in the identical order, that
// LuFactorization performs on the same matrix, merely skipping the
// out-of-band entries that dense elimination provably keeps at exact
// zero.  RC conductance matrices are symmetric and (weakly) diagonally
// dominant, so dense partial pivoting never actually swaps rows; the
// two paths therefore produce bitwise-identical solutions.  RcSolver
// exploits that to offer a dense A/B reference (HAYAT_DENSE_SOLVER=1)
// whose sweep outputs are byte-identical to the banded default.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/matrix.hpp"

namespace hayat {

/// Compressed-sparse-row matrix of doubles.  Rows are sorted by column;
/// duplicate insertions are summed in insertion order (so an assembly
/// that mirrors a dense `+=` sequence reproduces its values bitwise).
class SparseMatrix {
 public:
  SparseMatrix() = default;

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t nonZeros() const { return values_.size(); }

  /// Entry lookup (binary search within the row); 0.0 when absent.
  double at(int r, int c) const;

  /// y = A x into a caller-provided buffer (resized to rows()); the
  /// allocation-free SpMV used on hot paths.
  void multiplyInto(const Vector& x, Vector& y) const;

  /// Convenience allocating SpMV.
  Vector multiply(const Vector& x) const;

  /// Dense copy (tests, and the dense reference solver).
  Matrix toDense() const;

  const std::vector<int>& rowStart() const { return rowStart_; }
  const std::vector<int>& colIndex() const { return colIndex_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutableValues() { return values_; }

 private:
  friend class SparseMatrixBuilder;

  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> rowStart_;   ///< size rows_+1
  std::vector<int> colIndex_;   ///< size nnz, sorted within each row
  std::vector<double> values_;  ///< size nnz
};

/// Triplet accumulator: add entries in any order, duplicates are summed
/// in insertion order at build() time.
class SparseMatrixBuilder {
 public:
  SparseMatrixBuilder(int rows, int cols);

  void add(int r, int c, double value);
  SparseMatrix build() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  struct Triplet {
    int row;
    int col;
    double value;
  };
  std::vector<Triplet> triplets_;
};

/// True when the environment requests the dense reference solver
/// (HAYAT_DENSE_SOLVER=1).  Read per call so tests can flip it.
bool denseSolverRequested();

/// Reverse Cuthill–McKee ordering of a structurally symmetric matrix.
/// Returns `perm` with perm[newIndex] = oldIndex.  Deterministic: BFS
/// from a pseudo-peripheral vertex, neighbours visited by increasing
/// (degree, index).  Disconnected components are ordered one after the
/// other, each from its own peripheral seed.
std::vector<int> reverseCuthillMcKee(const SparseMatrix& a);

/// Half bandwidth max|i-j| of the pattern under a permutation
/// (perm[newIndex] = oldIndex); identity when perm is empty.
int bandwidthOf(const SparseMatrix& a, const std::vector<int>& perm);

/// No-pivot LU of a banded matrix.  Factor once, then solveInPlace for
/// thousands of right-hand sides with zero heap allocations.
///
/// Only valid for matrices whose dense partial-pivoting LU never swaps
/// rows (e.g. symmetric diagonally dominant RC networks); for those the
/// factorization and solves are bitwise identical to LuFactorization
/// (see file comment).  Throws hayat::Error on a (near-)zero pivot.
class BandedFactorization {
 public:
  /// Factors `a`, which must have all nonzeros within |i-j| <= band.
  BandedFactorization(const SparseMatrix& a, int band);

  int size() const { return n_; }
  int band() const { return band_; }

  /// Solves A x = b where `x` holds b on entry and the solution on
  /// return.  No allocations.
  void solveInPlace(Vector& x) const;

  /// Fused-permutation solve of the DESIGN.md §3.13 blocked sweeps: the
  /// right-hand side is gathered as x[perm[i]] when the forward sweep
  /// first touches row i, both triangular sweeps run on `scratch` (the
  /// permuted domain), and each final back-substituted value scatters
  /// straight to x[perm[i]] — the separate pack and unpack passes of the
  /// pre-§3.13 RcSolver are gone.  The forward sweep jams two rows per
  /// traversal; every accumulator still applies its subtractions in
  /// ascending j.  Both sweeps walk each row's profile only, leaving out
  /// the band entries elimination kept at exact zero (their terms
  /// subtract a zero, as the band itself leaves out the dense matrix's
  /// zeros), so the results are bitwise those of
  /// pack -> solveInPlace -> unpack.
  ///
  /// When `compare` is non-null (original-domain array of size()), the
  /// scatter also checks each solution element bitwise against it and
  /// the call returns true iff all elements matched — the fused
  /// fixed-point detector of the transient early exit.  Returns false
  /// when `compare` is null.  No allocations; `scratch` must already
  /// hold at least size() elements (debug-asserted).
  bool solvePermuted(Vector& x, Vector& scratch, const std::vector<int>& perm,
                     const double* compare) const;

  /// Multi-RHS solve: `count` right-hand sides stored interleaved
  /// (element i of RHS k at xs[i*count + k]), each replaced by its
  /// solution.  Every RHS undergoes the identical substitution sequence
  /// as solveInPlace — the interleaved layout only amortizes the factor
  /// traversal across RHS — so each solution is bitwise equal to a
  /// per-RHS solveInPlace.  No allocations.
  void solveManyInPlace(double* xs, int count) const;

  /// Fused-permutation multi-RHS solve: like solvePermuted but for the
  /// interleaved batch layout of solveManyInPlace.  Row i's lane values
  /// are gathered from xs[k][perm[i]] by the forward sweep and the
  /// back-substituted lane values scatter to xs[k][perm[i]], killing
  /// the pack/unpack passes of the §3.8 path.  Per RHS the substitution
  /// sequence is identical to solveInPlace, so each solution is bitwise
  /// equal to a per-RHS solve.  `scratch` must hold at least
  /// size() * xs.size() elements (the RcSolver wrapper sizes and
  /// debug-asserts it).  No allocations.
  void solveManyPermuted(std::vector<Vector>& xs, double* scratch,
                         const std::vector<int>& perm) const;

  /// Convenience allocating solve.
  Vector solve(const Vector& b) const;

 private:
  double& at(int r, int c) { return band_data_[bandIndex(r, c)]; }
  double at(int r, int c) const { return band_data_[bandIndex(r, c)]; }
  std::size_t bandIndex(int r, int c) const {
    return static_cast<std::size_t>(r) *
               static_cast<std::size_t>(2 * band_ + 1) +
           static_cast<std::size_t>(c - r + band_);
  }

  int n_ = 0;
  int band_ = 0;
  std::vector<double> band_data_;  ///< row-major band storage
  /// Row r's profile: L entries in [lowerBegin_[r], r) and U entries in
  /// (r, upperEnd_[r]]; the band entries outside it are exact zeros.
  std::vector<int> lowerBegin_;
  std::vector<int> upperEnd_;
};

/// The solver the thermal models use: one bandwidth-reducing permutation
/// plus either the banded kernel (default) or the dense reference LU.
///
/// Both backends factor the *same* permuted matrix, so their solutions
/// are bitwise identical (see file comment) — the dense path exists to
/// A/B-validate the sparse kernels, selected by HAYAT_DENSE_SOLVER=1 at
/// construction (Mode::Auto) or explicitly by benches.
class RcSolver {
 public:
  enum class Mode {
    Auto,    ///< banded unless HAYAT_DENSE_SOLVER=1
    Banded,  ///< force the sparse kernel
    Dense,   ///< force the dense reference LU
  };

  /// Factors `a` under `perm` (perm[newIndex] = oldIndex; empty means
  /// compute reverseCuthillMcKee(a) internally).
  explicit RcSolver(const SparseMatrix& a, std::vector<int> perm = {},
                    Mode mode = Mode::Auto);

  int size() const { return n_; }
  int band() const { return band_; }
  bool usesDense() const { return dense_ != nullptr; }
  const std::vector<int>& permutation() const { return perm_; }

  /// Solves A x = b where `x` holds b on entry and the solution on
  /// return.  `scratch` is resized to size() and clobbered; reusing it
  /// across calls makes the banded path allocation-free.  The banded
  /// backend runs the fused-permutation blocked sweeps (§3.13): no
  /// separate permute passes, bitwise-identical results.
  void solveInPlace(Vector& x, Vector& scratch) const;

  /// As solveInPlace, but additionally compares the solution bitwise
  /// against `compare` (size()) during the scatter writeback — one fused
  /// pass, no extra traversal.  Returns true iff x's solution is
  /// element-for-element bit-identical to `compare`.  The transient
  /// solver uses this to prove a step reached its fixed point.
  bool solveInPlaceCompare(Vector& x, Vector& scratch,
                           const Vector& compare) const;

  /// Solves A x = b for every vector in `xs` at once (each holds its b
  /// on entry and its solution on return).  The banded backend packs the
  /// permuted RHS interleaved into `scratch` and runs one multi-RHS
  /// substitution sweep; the dense reference backend falls back to
  /// per-RHS solves.  Either way each solution is bitwise equal to
  /// calling solveInPlace per RHS.
  void solveManyInPlace(std::vector<Vector>& xs, Vector& scratch) const;

  /// Convenience allocating solve.
  Vector solve(const Vector& b) const;

 private:
  int n_ = 0;
  int band_ = 0;
  std::vector<int> perm_;  ///< perm_[newIndex] = oldIndex
  std::unique_ptr<BandedFactorization> banded_;
  std::unique_ptr<LuFactorization> dense_;  ///< of the permuted matrix
};

}  // namespace hayat
