// Appendix A of the paper, reproduced end to end and pinned number by
// number: the complex (Eq. 13), boundary operators (Eq. 14–15), the
// Laplacian (Eq. 17), the padded operator (Eq. 18) with λ̃max = 6, the full
// 24-term Pauli decomposition (Eq. 19), and the final estimate β̃1 = 1.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "core/betti_estimator.hpp"
#include "core/padding.hpp"
#include "core/scaling.hpp"
#include "linalg/matrix_ops.hpp"
#include "quantum/pauli.hpp"
#include "statistical_checks.hpp"
#include "topology/betti.hpp"
#include "topology/boundary.hpp"
#include "topology/laplacian.hpp"
#include "topology/rips.hpp"

namespace qtda {
namespace {

/// K from Eq. (13), built from its maximal simplices.
SimplicialComplex paper_complex() {
  return SimplicialComplex::from_simplices(
      {Simplex{1, 2, 3}, Simplex{3, 4}, Simplex{3, 5}, Simplex{4, 5}},
      /*close_downward=*/true);
}

/// The same complex produced by the geometric pipeline of Fig. 5: a point
/// cloud whose ε-graph is exactly the edge set of Eq. (13).
PointCloud paper_point_cloud() {
  // Coordinates chosen so that with ε = 1.3 exactly the six edges
  // {12,13,23,34,35,45} appear (1–2–3 clustered, 3–4–5 a wider triangle
  // with 4–5 close and 1,2 far from 4,5).
  return PointCloud({{0.0, 1.0},     // 1
                     {1.0, 1.4},     // 2
                     {0.9, 0.4},     // 3
                     {1.8, -0.3},    // 4
                     {0.9, -0.85}}); // 5
}

TEST(WorkedExample, ComplexMatchesEq13) {
  const auto complex = paper_complex();
  EXPECT_EQ(complex.count(0), 5u);
  EXPECT_EQ(complex.count(1), 6u);
  EXPECT_EQ(complex.count(2), 1u);
  EXPECT_EQ(complex.total_count(), 12u);
  // The six edges, in the column order of Eq. (14).
  const auto& edges = complex.simplices(1);
  EXPECT_EQ(edges[0], (Simplex{1, 2}));
  EXPECT_EQ(edges[1], (Simplex{1, 3}));
  EXPECT_EQ(edges[2], (Simplex{2, 3}));
  EXPECT_EQ(edges[3], (Simplex{3, 4}));
  EXPECT_EQ(edges[4], (Simplex{3, 5}));
  EXPECT_EQ(edges[5], (Simplex{4, 5}));
}

TEST(WorkedExample, GeometricPipelineReproducesTheEdgeSet) {
  // A point cloud whose ε-graph has exactly the six edges of Eq. (13)
  // (0-indexed).  Note: the paper's K leaves the 3-4-5 triangle hollow even
  // though all its edges are present, so K is *not* the flag complex of its
  // own graph — the Rips pipeline necessarily fills both 3-cliques.  We pin
  // the edge set here and keep the hollow-triangle complex (Eq. 13) as an
  // explicitly-constructed abstract complex above.
  const auto complex = rips_complex(paper_point_cloud(), 1.3, 2);
  EXPECT_EQ(complex.count(0), 5u);
  EXPECT_EQ(complex.count(1), 6u);
  const auto& edges = complex.simplices(1);
  EXPECT_EQ(edges[0], (Simplex{0, 1}));
  EXPECT_EQ(edges[1], (Simplex{0, 2}));
  EXPECT_EQ(edges[2], (Simplex{1, 2}));
  EXPECT_EQ(edges[3], (Simplex{2, 3}));
  EXPECT_EQ(edges[4], (Simplex{2, 4}));
  EXPECT_EQ(edges[5], (Simplex{3, 4}));
  // Flag expansion fills both triangles → contractible-with-no-loop shape.
  EXPECT_EQ(complex.count(2), 2u);
  EXPECT_EQ(betti_number(complex, 1), 0u);
}

TEST(WorkedExample, BoundaryOperatorsMatchEq14And15) {
  const auto complex = paper_complex();
  const auto d1 = boundary_operator(complex, 1).to_dense();
  // Paper's Eq. (14) — the global negation of the standard orientation
  // (see boundary.hpp); Δ is identical either way.
  const RealMatrix eq14{{1, 1, 0, 0, 0, 0},   {-1, 0, 1, 0, 0, 0},
                        {0, -1, -1, 1, 1, 0}, {0, 0, 0, -1, 0, 1},
                        {0, 0, 0, 0, -1, -1}};
  EXPECT_LT(max_abs_diff(scale(d1, -1.0), eq14), 1e-15);

  const auto d2 = boundary_operator(complex, 2).to_dense();
  const RealMatrix eq15{{1}, {-1}, {1}, {0}, {0}, {0}};
  EXPECT_LT(max_abs_diff(d2, eq15), 1e-15);
}

TEST(WorkedExample, LaplacianMatchesEq17) {
  const auto complex = paper_complex();
  const auto laplacian = combinatorial_laplacian(complex, 1);
  const RealMatrix eq17{{3, 0, 0, 0, 0, 0},  {0, 3, 0, -1, -1, 0},
                        {0, 0, 3, -1, -1, 0}, {0, -1, -1, 2, 1, -1},
                        {0, -1, -1, 1, 2, 1}, {0, 0, 0, -1, 1, 2}};
  EXPECT_LT(max_abs_diff(laplacian, eq17), 1e-12);
}

TEST(WorkedExample, ClassicalBettiNumbers) {
  const auto complex = paper_complex();
  EXPECT_EQ(betti_number(complex, 0), 1u);
  EXPECT_EQ(betti_number(complex, 1), 1u);  // the hollow 3-4-5 triangle
  EXPECT_EQ(betti_number(complex, 2), 0u);
  EXPECT_EQ(betti_number_via_laplacian(complex, 1), 1u);
}

TEST(WorkedExample, PaddedLaplacianMatchesEq18) {
  const auto complex = paper_complex();
  const auto padded =
      pad_laplacian_sparse(sparse_combinatorial_laplacian(complex, 1));
  EXPECT_EQ(padded.num_qubits, 3u);
  EXPECT_DOUBLE_EQ(padded.lambda_max, 6.0);
  const RealMatrix eq18{{3, 0, 0, 0, 0, 0, 0, 0},  {0, 3, 0, -1, -1, 0, 0, 0},
                        {0, 0, 3, -1, -1, 0, 0, 0}, {0, -1, -1, 2, 1, -1, 0, 0},
                        {0, -1, -1, 1, 2, 1, 0, 0}, {0, 0, 0, -1, 1, 2, 0, 0},
                        {0, 0, 0, 0, 0, 0, 3, 0},  {0, 0, 0, 0, 0, 0, 0, 3}};
  EXPECT_LT(max_abs_diff(padded.matrix.to_dense(), eq18), 1e-12);
}

TEST(WorkedExample, PauliDecompositionMatchesEq19) {
  // δ = λ̃max = 6 → H = Δ̃ (Eq. 18); its Pauli expansion is Eq. (19).
  const auto complex = paper_complex();
  const auto padded =
      pad_laplacian_sparse(sparse_combinatorial_laplacian(complex, 1));
  const auto scaled = rescale_laplacian_sparse(padded, 6.0);
  const auto sum = pauli_decompose(scaled.matrix);

  const std::map<std::string, double> eq19{
      {"XXI", -0.5},   {"YYI", -0.5},   {"ZIX", -0.5},   {"IXI", -0.25},
      {"XIX", -0.25},  {"XYY", -0.25},  {"XZX", -0.25},  {"YIY", -0.25},
      {"YZY", -0.25},  {"ZXI", -0.25},  {"IZI", -0.125}, {"IZZ", -0.125},
      {"ZZZ", -0.125}, {"IIZ", 0.125},  {"ZII", 0.125},  {"ZIZ", 0.125},
      {"IXZ", 0.25},   {"XXX", 0.25},   {"YXY", 0.25},   {"YYX", 0.25},
      {"ZXZ", 0.25},   {"ZZI", 0.375},  {"IZX", 0.5},    {"III", 2.625}};

  EXPECT_EQ(sum.size(), eq19.size());
  for (const auto& [letters, coefficient] : eq19) {
    EXPECT_NEAR(sum.coefficient_of(letters), coefficient, 1e-12)
        << "term " << letters;
  }
}

TEST(WorkedExample, QuantumEstimateWithPaperParameters) {
  // 3 precision qubits, 1000 shots (the paper measured p(0) = 0.149,
  // β̃1 = 1.192 → rounds to 1).  Shot noise makes the exact count seed-
  // dependent; the rounded Betti number must be 1 and p(0) close to the
  // paper's value.
  const auto complex = paper_complex();
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitExact;
  options.precision_qubits = 3;
  options.shots = 1000;
  options.delta = 6.0;
  options.seed = 2023;
  const auto estimate = estimate_betti(complex, 1, options);
  EXPECT_EQ(estimate.system_qubits, 3u);
  EXPECT_EQ(estimate.precision_qubits, 3u);
  EXPECT_EQ(estimate.total_qubits, 9u);  // 3 + 3 + 3 ancillas (Fig. 6)
  EXPECT_NEAR(estimate.zero_probability, estimate.exact_zero_probability,
              0.04);
  EXPECT_EQ(estimate.rounded_betti, 1u);
  // The paper's measured value 0.149 should be within shot noise of the
  // exact probability our simulation computes.
  EXPECT_NEAR(estimate.exact_zero_probability, 0.149, 0.03);
}

TEST(WorkedExample, AnalyticBackendAgreesWithPaper) {
  const auto complex = paper_complex();
  EstimatorOptions options;
  options.backend = EstimatorBackend::kAnalytic;
  options.precision_qubits = 3;
  options.shots = 1000000;
  options.delta = 6.0;
  const auto estimate = estimate_betti(complex, 1, options);
  EXPECT_NEAR(estimate.estimated_betti,
              8.0 * estimate.exact_zero_probability, 0.02);
  EXPECT_EQ(estimate.rounded_betti, 1u);
}

/// The paper's Fig. 7 route: Pauli decomposition → Trotter circuit.  H's
/// terms do not all commute, so use a few Strang steps.
EstimatorOptions trotterized_options() {
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitTrotter;
  options.precision_qubits = 3;
  options.shots = 4000;
  options.delta = 6.0;
  options.trotter = {16, 2};
  return options;
}

TEST(WorkedExample, TrotterizedCircuitReproducesEstimate) {
  // Deterministic: the compiled plan's p(0) lies within 2.5e-6 of the
  // analytic value (measured Trotter bias at 16 steps: 1.3e-6).
  const CompiledEstimate compiled = compile_betti_estimate(
      sparse_combinatorial_laplacian(paper_complex(), 1),
      trotterized_options());
  EXPECT_NEAR(testing::plan_zero_probability(compiled),
              compiled.exact_zero_probability, 2.5e-6);
}

TEST(WorkedExample, TrotterizedShotsAreBinomialInThePlanProbability) {
  // Sampling: the zero counts are a Binomial(shots, p_plan(0)) draw,
  // accepted at a false-failure rate of 1e-9, and round to β₁ = 1.
  const EstimatorOptions options = trotterized_options();
  const CompiledEstimate compiled = compile_betti_estimate(
      sparse_combinatorial_laplacian(paper_complex(), 1), options);
  const testing::CountInterval accepted =
      testing::binomial_acceptance_interval(
          options.shots, testing::plan_zero_probability(compiled), 1e-9);
  const BettiEstimate estimate = estimate_betti_with_plan(compiled, options);
  EXPECT_GE(estimate.zero_counts, accepted.lo);
  EXPECT_LE(estimate.zero_counts, accepted.hi);
  EXPECT_EQ(estimate.rounded_betti, 1u);
}

}  // namespace
}  // namespace qtda
