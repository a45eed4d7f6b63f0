#include "core/scaling.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "quantum/types.hpp"

namespace qtda {

double default_delta() { return 0.95 * kTwoPi; }

double rescale_factor(double lambda_max, double delta) {
  QTDA_REQUIRE(delta > 0.0 && delta <= kTwoPi,
               "delta must lie in (0, 2π], got " << delta);
  return delta / lambda_max;
}

double SparseScaledHamiltonian::eigenvalue_to_phase(double lambda) const {
  return lambda * scale / kTwoPi;
}

SparseScaledHamiltonian rescale_laplacian_sparse(
    const SparsePaddedLaplacian& padded, double delta) {
  SparseScaledHamiltonian out;
  out.delta = delta;
  out.lambda_max = padded.lambda_max;
  out.scale = rescale_factor(padded.lambda_max, delta);
  out.num_qubits = padded.num_qubits;
  out.original_dim = padded.original_dim;
  out.matrix = padded.matrix.scaled(out.scale);
  return out;
}

RealVector scaled_padded_spectrum(const RealMatrix& laplacian,
                                  std::size_t num_qubits, double lambda_max,
                                  double scale, PaddingScheme scheme) {
  const std::size_t dim = std::size_t{1} << num_qubits;
  QTDA_REQUIRE(laplacian.rows() <= dim,
               laplacian.rows() << " rows do not fit " << num_qubits
                                << " qubits");
  RealVector spectrum = symmetric_eigenvalues(laplacian);
  const std::size_t block = spectrum.size();
  spectrum.resize(dim, scheme == PaddingScheme::kIdentityHalfLambdaMax
                           ? lambda_max / 2.0
                           : 0.0);
  for (double& value : spectrum) value *= scale;
  // Both runs are ascending (scale > 0); merge them.
  std::inplace_merge(spectrum.begin(),
                     spectrum.begin() + static_cast<std::ptrdiff_t>(block),
                     spectrum.end());
  return spectrum;
}

}  // namespace qtda
