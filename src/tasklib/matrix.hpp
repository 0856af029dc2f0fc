// Dense linear algebra kernels for the "matrix algebra library" menu.
//
// The paper's running example (Figure 3) is a Linear Equation Solver
// built from LU decomposition, matrix inversion and matrix
// multiplication nodes; these are their real implementations.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace vdce::tasklib {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] const std::vector<double>& data() const { return data_; }
  [[nodiscard]] std::vector<double>& data() { return data_; }

  /// Identity matrix of order n.
  [[nodiscard]] static Matrix identity(std::size_t n);

  /// Random matrix with entries uniform in [-1, 1); adding `diag_boost`
  /// to the diagonal makes the matrix diagonally dominant (and hence
  /// well-conditioned) for solver tests.
  [[nodiscard]] static Matrix random(std::size_t rows, std::size_t cols,
                                     common::Rng& rng,
                                     double diag_boost = 0.0);

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A * B; throws StateError on dimension mismatch.
[[nodiscard]] Matrix multiply(const Matrix& a, const Matrix& b);

/// y = A * x.
[[nodiscard]] std::vector<double> multiply(const Matrix& a,
                                           const std::vector<double>& x);

[[nodiscard]] Matrix transpose(const Matrix& a);

/// Result of an LU factorisation with partial pivoting: PA = LU packed
/// into one matrix (L below the diagonal with implicit unit diagonal,
/// U on and above it) plus the row permutation.
struct LuFactors {
  Matrix lu;
  std::vector<std::size_t> perm;  // perm[i] = source row of row i of PA
  int perm_sign = 1;              // +1/-1, parity of the permutation
};

/// LU decomposition with partial pivoting.  Throws StateError if the
/// matrix is not square or is numerically singular.
[[nodiscard]] LuFactors lu_decompose(const Matrix& a);

/// Solves A x = b using precomputed factors.
[[nodiscard]] std::vector<double> lu_solve(const LuFactors& f,
                                           const std::vector<double>& b);

/// Solves A X = B column-by-column.
[[nodiscard]] Matrix lu_solve(const LuFactors& f, const Matrix& b);

/// A^-1 via LU.  Throws StateError on singular input.
[[nodiscard]] Matrix invert(const Matrix& a);

/// det(A) via LU (0.0 when factorisation detects singularity is
/// reported by throwing instead; use with well-conditioned inputs).
[[nodiscard]] double determinant(const Matrix& a);

/// Solves L y = b where L is the packed unit-lower factor.
[[nodiscard]] std::vector<double> forward_substitute(
    const Matrix& lu, const std::vector<double>& b);

/// Solves U x = y where U is the packed upper factor.
[[nodiscard]] std::vector<double> back_substitute(
    const Matrix& lu, const std::vector<double>& y);

/// Cholesky factorisation A = L L^T of a symmetric positive-definite
/// matrix; returns the lower factor.  Throws StateError if A is not
/// square or not positive definite.
[[nodiscard]] Matrix cholesky(const Matrix& a);

/// Builds a random symmetric positive-definite matrix (B B^T + n I).
[[nodiscard]] Matrix random_spd(std::size_t n, common::Rng& rng);

/// Result of an iterative solve.
struct IterativeResult {
  std::vector<double> x;
  std::size_t iterations = 0;
  double residual = 0.0;
  bool converged = false;
};

/// Jacobi iteration for Ax = b (A diagonally dominant).  Stops at
/// `tolerance` on the max-norm residual or after `max_iterations`.
[[nodiscard]] IterativeResult jacobi_solve(const Matrix& a,
                                           const std::vector<double>& b,
                                           double tolerance = 1e-10,
                                           std::size_t max_iterations = 500);

/// max-abs norm of a vector / matrix.
[[nodiscard]] double max_norm(const std::vector<double>& v);
[[nodiscard]] double max_norm(const Matrix& a);

/// ||A x - b||_inf, the solver residual the examples report.
[[nodiscard]] double residual(const Matrix& a, const std::vector<double>& x,
                              const std::vector<double>& b);

}  // namespace vdce::tasklib
