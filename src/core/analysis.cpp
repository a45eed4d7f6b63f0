#include "core/analysis.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/analytic_qpe.hpp"
#include "quantum/types.hpp"

namespace qtda {

EstimatorErrorAnalysis analyze_estimator_error(const RealMatrix& laplacian,
                                               std::size_t precision_qubits,
                                               double delta,
                                               PaddingScheme padding,
                                               double kernel_tolerance) {
  QTDA_REQUIRE(precision_qubits >= 1, "need at least one precision qubit");
  const PaddingShape shape =
      padding_shape(SparseMatrix::from_dense(laplacian));
  const double scale = rescale_factor(
      shape.lambda_max, delta > 0.0 ? delta : default_delta());
  const RealVector eigenvalues = scaled_padded_spectrum(
      laplacian, shape.num_qubits, shape.lambda_max, scale, padding);

  EstimatorErrorAnalysis analysis;
  analysis.system_qubits = shape.num_qubits;
  const double dim = std::pow(2.0, static_cast<double>(shape.num_qubits));

  // Kernel count and spectral gap on the *scaled* spectrum; the scaled
  // kernel tolerance follows the rescaling factor.
  const double scaled_tolerance = kernel_tolerance * scale;
  double gap_phase = 1.0;
  for (double lambda : eigenvalues) {
    if (std::abs(lambda) <= scaled_tolerance) {
      ++analysis.kernel_dimension;
    } else {
      gap_phase = std::min(gap_phase, std::abs(lambda) / kTwoPi);
    }
  }
  analysis.spectral_gap_phase =
      analysis.kernel_dimension == eigenvalues.size() ? 0.0 : gap_phase;

  analysis.ideal_zero_probability =
      static_cast<double>(analysis.kernel_dimension) / dim;
  analysis.exact_zero_probability =
      analytic_zero_probability(eigenvalues, precision_qubits);
  analysis.leakage =
      analysis.exact_zero_probability - analysis.ideal_zero_probability;
  analysis.betti_bias = dim * analysis.leakage;
  return analysis;
}

std::size_t recommended_precision_qubits(const RealMatrix& laplacian,
                                         double max_bias, double delta,
                                         std::size_t max_precision) {
  QTDA_REQUIRE(max_bias > 0.0, "bias target must be positive");
  QTDA_REQUIRE(max_precision >= 1, "max_precision must be >= 1");
  for (std::size_t t = 1; t <= max_precision; ++t) {
    const auto analysis = analyze_estimator_error(laplacian, t, delta);
    if (analysis.betti_bias <= max_bias) return t;
  }
  QTDA_REQUIRE(false, "bias target " << max_bias << " unreachable with "
                                     << max_precision << " precision qubits");
  return max_precision;
}

}  // namespace qtda
