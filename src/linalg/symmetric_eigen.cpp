#include "linalg/symmetric_eigen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "linalg/matrix_ops.hpp"

namespace qtda {

namespace {

/// QL iterations allowed per eigenvalue (Wilkinson shifts need two or three).
constexpr int kMaxIterationsPerEigenvalue = 30;

/// Householder reduction A = Q·T·Qᵀ (Golub & Van Loan Algorithm 8.3.1), run
/// bottom-up: step i reflects row i's entries left of the off-diagonal to
/// zero and updates the leading i×i block.  Loops walk whole rows, so the
/// inner loops are contiguous axpys.  T's diagonal goes to d and its
/// off-diagonal to e (e[i] couples rows i and i + 1); Qᵀ goes to \p qt when
/// non-null.
void tridiagonalize(RealMatrix a, RealVector& d, RealVector& e,
                    RealMatrix* qt) {
  const std::size_t n = a.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  if (qt != nullptr) *qt = RealMatrix::identity(n);
  RealVector w(n);
  for (std::size_t i = n; i-- > 2;) {
    double* u = a.row(i);  // x = A(i, 0:i) turns into the reflector u
    double scale = 0.0, norm_sq = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::abs(u[k]);
    if (scale == std::abs(u[i - 1])) {  // already reduced (to rounding)
      e[i - 1] = u[i - 1];
      continue;
    }
    for (std::size_t k = 0; k < i; ++k) {
      u[k] /= scale;
      norm_sq += u[k] * u[k];
    }
    // H = I − u·uᵀ/h maps x to g·e_{i−1}; g's sign avoids cancellation.
    const double f = u[i - 1];
    const double g = f >= 0.0 ? -std::sqrt(norm_sq) : std::sqrt(norm_sq);
    e[i - 1] = scale * g;
    u[i - 1] = f - g;
    const double h = norm_sq - f * g;
    // B ← H·B·H = B − u·wᵀ − w·uᵀ with w = p − (uᵀp/2h)·u and p = B·u/h,
    // summed over B's rows (B is symmetric).
    std::fill(w.begin(), w.end(), 0.0);
    for (std::size_t j = 0; j < i; ++j) {
      const double* row = a.row(j);
      const double uj = u[j];
      for (std::size_t k = 0; k < i; ++k) w[k] += uj * row[k];
    }
    double up = 0.0;
    for (std::size_t k = 0; k < i; ++k) {
      w[k] /= h;
      up += u[k] * w[k];
    }
    for (std::size_t k = 0; k < i; ++k) w[k] -= up / (2.0 * h) * u[k];
    for (std::size_t j = 0; j < i; ++j) {
      double* row = a.row(j);
      const double uj = u[j], wj = w[j];
      for (std::size_t k = 0; k < i; ++k) row[k] -= uj * w[k] + wj * u[k];
    }
    if (qt == nullptr) continue;
    // Qᵀ = H_2···H_{n−1}, so each step multiplies Qᵀ by H from the left.
    std::fill(w.begin(), w.end(), 0.0);
    for (std::size_t j = 0; j < i; ++j) {
      const double* row = qt->row(j);
      const double uj = u[j];
      for (std::size_t k = 0; k < n; ++k) w[k] += uj * row[k];
    }
    for (std::size_t j = 0; j < i; ++j) {
      double* row = qt->row(j);
      const double c = u[j] / h;
      for (std::size_t k = 0; k < n; ++k) row[k] -= c * w[k];
    }
  }
  if (n > 1) e[0] = a(1, 0);
  for (std::size_t i = 0; i < n; ++i) d[i] = a(i, i);
}

/// Implicit QL with Wilkinson shifts (the QL form of Golub & Van Loan
/// §8.3.3) on the tridiagonal (d, e): leaves the eigenvalues in d and
/// applies every rotation of rows i, i + 1 to \p vt when non-null.
void diagonalize(RealVector& d, RealVector& e, RealMatrix* vt) {
  const std::size_t n = d.size();
  // A coupling below ε‖T‖ is at the level of the reduction's own rounding,
  // so it counts as zero.  The test is absolute on purpose: a cluster of
  // numerically zero eigenvalues (a Laplacian's kernel) can leave entries
  // far below ε‖T‖ that no test relative to them would ever deflate.
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    norm = std::max(norm, std::abs(d[i]) + std::abs(e[i]) +
                              (i > 0 ? std::abs(e[i - 1]) : 0.0));
  const double negligible = std::numeric_limits<double>::epsilon() * norm;
  for (std::size_t l = 0; l < n; ++l) {
    for (int iteration = 0;; ++iteration) {
      // The unreduced block from l ends at the first negligible coupling
      // (negated test: a NaN is never negligible, so it cannot converge).
      std::size_t m = l;
      while (m + 1 < n && !(std::abs(e[m]) <= negligible)) ++m;
      if (m == l) break;
      QTDA_REQUIRE(iteration < kMaxIterationsPerEigenvalue,
                   "QL iteration failed to converge in "
                       << kMaxIterationsPerEigenvalue << " steps");
      // Shift: the eigenvalue of the leading 2×2 block nearer d[l].
      const double theta = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double g = d[m] - d[l] +
                 e[l] / (theta + std::copysign(std::hypot(theta, 1.0), theta));
      double s = 1.0, c = 1.0, p = 0.0;
      bool split = false;
      for (std::size_t i = m; i-- > l;) {  // chase the bulge up
        const double f = s * e[i];
        const double b = c * e[i];
        const double r = std::hypot(f, g);
        e[i + 1] = r;
        if (r == 0.0) {  // the block split at i + 1: iterate again
          d[i + 1] -= p;
          e[m] = 0.0;
          split = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        const double z = (d[i] - g) * s + 2.0 * c * b;
        p = s * z;
        d[i + 1] = g + p;
        g = c * z - b;
        if (vt == nullptr) continue;
        double* lo = vt->row(i);
        double* hi = vt->row(i + 1);
        for (std::size_t k = 0; k < n; ++k) {
          const double x = hi[k];
          hi[k] = s * lo[k] + c * x;
          lo[k] = c * lo[k] - s * x;
        }
      }
      if (split) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }
}

/// Unsorted eigenvalues of a symmetric matrix, plus the eigenvectors as the
/// rows of \p vt when non-null.
RealVector solve(const RealMatrix& a, RealMatrix* vt) {
  QTDA_REQUIRE(a.is_square(), "eigendecomposition needs a square matrix");
  double max_entry = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    max_entry = std::max(max_entry, std::abs(a.data()[i]));
  QTDA_REQUIRE(is_symmetric(a, 1e-9 * std::max(1.0, max_entry)),
               "eigendecomposition needs a symmetric matrix");
  RealVector d, e;
  tridiagonalize(a, d, e, vt);
  diagonalize(d, e, vt);
  return d;
}

}  // namespace

SymmetricEigenResult symmetric_eigen(const RealMatrix& a) {
  RealMatrix vt;
  const RealVector values = solve(a, &vt);
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x,
                                                   std::size_t y) {
    return values[x] < values[y];
  });
  SymmetricEigenResult result{RealVector(n), RealMatrix(n, n)};
  for (std::size_t j = 0; j < n; ++j) {
    result.values[j] = values[order[j]];
    for (std::size_t i = 0; i < n; ++i)
      result.vectors(i, j) = vt(order[j], i);
  }
  return result;
}

RealVector symmetric_eigenvalues(const RealMatrix& a) {
  RealVector values = solve(a, nullptr);
  std::sort(values.begin(), values.end());
  return values;
}

std::size_t count_zero_eigenvalues(const RealMatrix& a, double tol) {
  const RealVector values = symmetric_eigenvalues(a);
  std::size_t count = 0;
  for (double v : values)
    if (std::abs(v) <= tol) ++count;
  return count;
}

}  // namespace qtda
