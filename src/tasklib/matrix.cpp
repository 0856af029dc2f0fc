#include "tasklib/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace vdce::tasklib {

using common::StateError;
using common::expects;

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

Matrix Matrix::random(std::size_t rows, std::size_t cols, common::Rng& rng,
                      double diag_boost) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  const std::size_t n = std::min(rows, cols);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) += diag_boost;
  return m;
}

Matrix multiply(const Matrix& a, const Matrix& b) {
  expects(a.cols() == b.rows(), "matrix multiply dimension mismatch");
  Matrix c(a.rows(), b.cols());
  // i-k-j loop order keeps the inner loop contiguous in both B and C.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a.at(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += aik * b.at(k, j);
      }
    }
  }
  return c;
}

std::vector<double> multiply(const Matrix& a, const std::vector<double>& x) {
  expects(a.cols() == x.size(), "matrix-vector dimension mismatch");
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += a.at(i, j) * x[j];
    y[i] = acc;
  }
  return y;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

LuFactors lu_decompose(const Matrix& a) {
  expects(a.rows() == a.cols(), "LU decomposition requires a square matrix");
  const std::size_t n = a.rows();
  expects(n > 0, "LU decomposition of an empty matrix");

  LuFactors f;
  f.lu = a;
  f.perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) f.perm[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: bring the largest |entry| of column k to row k.
    std::size_t pivot = k;
    double best = std::abs(f.lu.at(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(f.lu.at(i, k));
      if (v > best) {
        best = v;
        pivot = i;
      }
    }
    if (best < 1e-12) throw StateError("matrix is numerically singular");
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(f.lu.at(k, j), f.lu.at(pivot, j));
      }
      std::swap(f.perm[k], f.perm[pivot]);
      f.perm_sign = -f.perm_sign;
    }
    const double diag = f.lu.at(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = f.lu.at(i, k) / diag;
      f.lu.at(i, k) = m;  // store the L multiplier in place
      for (std::size_t j = k + 1; j < n; ++j) {
        f.lu.at(i, j) -= m * f.lu.at(k, j);
      }
    }
  }
  return f;
}

std::vector<double> forward_substitute(const Matrix& lu,
                                       const std::vector<double>& b) {
  expects(lu.rows() == b.size(), "forward substitution size mismatch");
  const std::size_t n = b.size();
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu.at(i, j) * y[j];
    y[i] = acc;  // unit diagonal of L
  }
  return y;
}

std::vector<double> back_substitute(const Matrix& lu,
                                    const std::vector<double>& y) {
  expects(lu.rows() == y.size(), "back substitution size mismatch");
  const std::size_t n = y.size();
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu.at(ii, j) * x[j];
    x[ii] = acc / lu.at(ii, ii);
  }
  return x;
}

std::vector<double> lu_solve(const LuFactors& f,
                             const std::vector<double>& b) {
  expects(f.lu.rows() == b.size(), "lu_solve size mismatch");
  // Apply the row permutation to b, then two triangular solves.
  std::vector<double> pb(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) pb[i] = b[f.perm[i]];
  return back_substitute(f.lu, forward_substitute(f.lu, pb));
}

Matrix lu_solve(const LuFactors& f, const Matrix& b) {
  expects(f.lu.rows() == b.rows(), "lu_solve size mismatch");
  Matrix x(b.rows(), b.cols());
  std::vector<double> col(b.rows());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < b.rows(); ++i) col[i] = b.at(i, j);
    const auto sol = lu_solve(f, col);
    for (std::size_t i = 0; i < b.rows(); ++i) x.at(i, j) = sol[i];
  }
  return x;
}

Matrix invert(const Matrix& a) {
  const auto f = lu_decompose(a);
  return lu_solve(f, Matrix::identity(a.rows()));
}

double determinant(const Matrix& a) {
  const auto f = lu_decompose(a);
  double det = static_cast<double>(f.perm_sign);
  for (std::size_t i = 0; i < a.rows(); ++i) det *= f.lu.at(i, i);
  return det;
}

Matrix cholesky(const Matrix& a) {
  expects(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a.at(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l.at(i, k) * l.at(j, k);
      if (i == j) {
        if (sum <= 0.0) {
          throw StateError("matrix is not positive definite");
        }
        l.at(i, i) = std::sqrt(sum);
      } else {
        l.at(i, j) = sum / l.at(j, j);
      }
    }
  }
  return l;
}

Matrix random_spd(std::size_t n, common::Rng& rng) {
  const Matrix b = Matrix::random(n, n, rng);
  Matrix a = multiply(b, transpose(b));
  for (std::size_t i = 0; i < n; ++i) {
    a.at(i, i) += static_cast<double>(n);
  }
  return a;
}

IterativeResult jacobi_solve(const Matrix& a, const std::vector<double>& b,
                             double tolerance,
                             std::size_t max_iterations) {
  expects(a.rows() == a.cols(), "Jacobi requires a square matrix");
  expects(a.rows() == b.size(), "Jacobi size mismatch");
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) {
    expects(a.at(i, i) != 0.0, "Jacobi requires a nonzero diagonal");
  }

  IterativeResult result;
  result.x.assign(n, 0.0);
  std::vector<double> next(n);
  for (result.iterations = 0; result.iterations < max_iterations;
       ++result.iterations) {
    for (std::size_t i = 0; i < n; ++i) {
      double sum = b[i];
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) sum -= a.at(i, j) * result.x[j];
      }
      next[i] = sum / a.at(i, i);
    }
    result.x.swap(next);
    result.residual = residual(a, result.x, b);
    if (result.residual <= tolerance) {
      result.converged = true;
      ++result.iterations;
      break;
    }
  }
  return result;
}

double max_norm(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

double max_norm(const Matrix& a) { return max_norm(a.data()); }

double residual(const Matrix& a, const std::vector<double>& x,
                const std::vector<double>& b) {
  const auto ax = multiply(a, x);
  double m = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    m = std::max(m, std::abs(ax[i] - b[i]));
  }
  return m;
}

}  // namespace vdce::tasklib
