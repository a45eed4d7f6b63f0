#include "core/persistent_estimator.hpp"

#include "common/error.hpp"
#include "topology/persistent_laplacian.hpp"

namespace qtda {

BettiEstimate estimate_persistent_betti(const SimplicialComplex& sub,
                                        const SimplicialComplex& super,
                                        int k,
                                        const EstimatorOptions& options) {
  if (sub.count(k) == 0) {
    BettiEstimate empty;
    empty.shots = options.shots;
    empty.precision_qubits = options.precision_qubits;
    return empty;
  }
  return estimate_betti_from_sparse_laplacian(
      sparse_persistent_laplacian(sub, super, k), options);
}

BettiEstimate estimate_persistent_betti(const Filtration& filtration, int k,
                                        double birth_scale,
                                        double death_scale,
                                        const EstimatorOptions& options) {
  QTDA_REQUIRE(birth_scale <= death_scale,
               "persistent Betti needs birth scale <= death scale");
  return estimate_persistent_betti(filtration.complex_at(birth_scale),
                                   filtration.complex_at(death_scale), k,
                                   options);
}

}  // namespace qtda
