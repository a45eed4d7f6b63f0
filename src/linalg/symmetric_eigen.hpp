/// \file symmetric_eigen.hpp
/// \brief Real symmetric eigensolver: Householder tridiagonalization, then
/// implicit QL with Wilkinson shifts (Golub & Van Loan, *Matrix
/// Computations*, 4th ed., §8.3).  O(n³) for the reduction, O(n²) for the
/// eigenvalues, and O(n³) more only when eigenvectors are asked for.  Both
/// stages are backward stable: the absolute error of every eigenvalue is
/// about ε‖A‖ (~1e-15 on the Laplacians here), far below the 1e-8 kernel
/// tolerance.  Eigenvalues come back ascending with matching eigenvectors.
#pragma once

#include "linalg/dense_matrix.hpp"

namespace qtda {

/// Result of a symmetric eigendecomposition: A = V·diag(values)·Vᵀ.
struct SymmetricEigenResult {
  RealVector values;   ///< ascending eigenvalues
  RealMatrix vectors;  ///< column j is the eigenvector of values[j]
};

/// Full eigendecomposition of a symmetric matrix.  Throws on non-symmetric
/// input (tolerance 1e-9 relative to the largest entry) or non-convergence.
SymmetricEigenResult symmetric_eigen(const RealMatrix& a);

/// Eigenvalues only (same solver; no eigenvector accumulation).
RealVector symmetric_eigenvalues(const RealMatrix& a);

/// Number of eigenvalues with |λ| ≤ tol — the kernel dimension, i.e. the
/// Betti number when \p a is a combinatorial Laplacian.
std::size_t count_zero_eigenvalues(const RealMatrix& a, double tol = 1e-8);

}  // namespace qtda
