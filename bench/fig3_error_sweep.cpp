/// \file fig3_error_sweep.cpp
/// \brief Regenerates Fig. 3 (a,b,c): boxplots of the absolute error
/// |β̃1 − β1| on random simplicial complexes for n ∈ {5, 10, 15}, sweeping
/// the number of precision qubits (1..10) and shots (10²..10⁶).
///
/// The paper draws 100 random complexes per n; the default here is 30 for
/// wall-clock friendliness (--full restores 100, --complexes N overrides).
/// The Analytic backend makes the 10⁶-shot cells exact-and-instant: it
/// computes the same p(0) the circuit produces (tests pin the equivalence)
/// and draws the shot counter from Binomial(α, p(0)).
///
/// Expected shape (paper §4): error falls with both axes, reaching ~0 at
/// high precision/shots; larger n has larger worst-case error because
/// |S_1| — and with it 2^q — grows.
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/betti_estimator.hpp"
#include "experiment_common.hpp"
#include "linalg/sparse_matrix.hpp"
#include "topology/betti.hpp"
#include "topology/laplacian.hpp"
#include "topology/random_complex.hpp"

namespace {

using namespace qtda;

void run_for_n(std::size_t n, std::size_t num_complexes,
               const std::vector<std::int64_t>& shot_counts,
               std::size_t max_precision, std::uint64_t seed) {
  bench::banner("Fig 3: n = " + std::to_string(n) + "  (" +
                std::to_string(num_complexes) + " random complexes, k = 1)");

  // Pre-draw complexes and their exact data once.  Each (instance, t) then
  // compiles once — the eigensolve behind p(0) reads neither shots nor
  // seed — and executes once per shot count.
  struct Instance {
    SparseMatrix laplacian;
    std::size_t betti;
  };
  std::vector<Instance> instances;
  Rng rng(seed);
  while (instances.size() < num_complexes) {
    RandomComplexOptions options;
    options.num_vertices = n;
    options.max_dimension = 2;
    const auto complex = random_flag_complex(options, rng);
    if (complex.count(1) == 0) continue;  // k = 1 needs edges
    instances.push_back(
        {SparseMatrix::from_dense(combinatorial_laplacian(complex, 1)),
         betti_number(complex, 1)});
  }

  std::printf("%-6s", "t \\ a");
  for (auto shots : shot_counts) std::printf("  %10lld", (long long)shots);
  std::printf("   (median |err|; q3 in parens)\n");

  for (std::size_t t = 1; t <= max_precision; ++t) {
    std::printf("t=%-4zu", t);
    EstimatorOptions options;
    options.backend = EstimatorBackend::kAnalytic;
    options.precision_qubits = t;
    std::vector<CompiledEstimate> compiled(instances.size());
    parallel_for(0, instances.size(), [&](std::size_t i) {
      compiled[i] = compile_betti_estimate(instances[i].laplacian, options);
    }, 1);
    for (auto shots : shot_counts) {
      std::vector<double> errors(instances.size());
      parallel_for(0, instances.size(), [&](std::size_t i) {
        EstimatorOptions run = options;
        run.shots = static_cast<std::size_t>(shots);
        run.seed = seed * 1000003 + i * 97 + t * 13 +
                   static_cast<std::uint64_t>(shots);
        const auto estimate = estimate_betti_with_plan(compiled[i], run);
        errors[i] = std::abs(estimate.estimated_betti -
                             static_cast<double>(instances[i].betti));
      }, 1);
      const auto summary = five_number_summary(errors);
      std::printf("  %6.3f(%5.2f)", summary.median, summary.q3);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool full = args.get_bool("full");
  const auto complexes = static_cast<std::size_t>(
      args.get_int("complexes", full ? 100 : 30));
  const auto max_precision =
      static_cast<std::size_t>(args.get_int("max-precision", 10));
  const auto shot_counts = args.get_int_list(
      "shots", {100, 1000, 10000, 100000, 1000000});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2023));

  std::printf("Fig. 3 reproduction: absolute error |estimated - actual| of "
              "the QTDA Betti estimate\n");
  std::printf("Backend: Analytic (exact QPE statistics + Binomial shots); "
              "padding: (lambda_max/2)*I; delta = 0.95*2*pi\n");

  Timer timer;
  for (std::size_t n : {std::size_t{5}, std::size_t{10}, std::size_t{15}}) {
    run_for_n(n, complexes, shot_counts, max_precision, seed + n);
  }
  std::printf("\nTotal wall time: %.2f s\n", timer.seconds());
  return 0;
}
