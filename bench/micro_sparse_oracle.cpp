/// \file micro_sparse_oracle.cpp
/// \brief Dense vs matrix-free controlled-U^p QPE oracles.
///
/// The unit under test is one controlled power U^p = exp(i·p·H) applied to
/// a (1 + q)-qubit state (control wire + system register), the building
/// block the QPE network repeats t times:
///
///  * dense:  eigendecompose H (O(8^q)), assemble the 2^q×2^q unitary,
///            apply it with the dense kernel — the kCircuitExact path.
///  * dense-amortized: eigendecomposition hoisted out of the loop; only
///            unitary assembly + application are timed (the marginal cost
///            of one extra power in a QPE circuit).
///  * sparse: Chebyshev coefficients + num_terms() CSR passes — the
///            kCircuitSparse path.  Nothing 2^q×2^q is ever allocated, so
///            it keeps scaling (q = 12 here) after the dense oracle has
///            left the building.
///
/// BM_SparseOracleBatch/q/count times the oracle alone on gathered batches
/// of right-hand sides, as the engines call it: the sampled-basis shapes at
/// t = 3 and 4 (4 and 8), a few blocks (64) and the ~380-vector batches of
/// the cold-features workload (512), in vectors per second of wall time.
/// The two small batches also run at q = 13, where one vector's recurrence
/// is long enough that spreading a batch over the pool pays.
#include <benchmark/benchmark.h>

#include <cmath>
#include <complex>
#include <memory>
#include <vector>

#include "common/random.hpp"
#include "core/padding.hpp"
#include "core/scaling.hpp"
#include "linalg/expm_multiply.hpp"
#include "linalg/matrix_exp.hpp"
#include "quantum/statevector.hpp"
#include "topology/laplacian.hpp"
#include "topology/random_complex.hpp"

namespace {

using namespace qtda;

constexpr double kBenchPower = 8.0;  // the U^{2^3} controlled power

/// Random flag-complex Δ_1 whose padded dimension is exactly 2^q.
SparseMatrix sample_sparse_laplacian(std::size_t target_qubits) {
  const std::size_t lo = std::size_t{1} << (target_qubits - 1);
  const std::size_t hi = std::size_t{1} << target_qubits;
  // Expected edge count n(n−1)/4 ≈ 0.75·2^q puts |S_1| inside (2^{q−1}, 2^q].
  const std::size_t n = static_cast<std::size_t>(
      std::ceil(std::sqrt(3.0 * static_cast<double>(hi))));
  Rng rng(target_qubits * 7727 + 1);
  for (;;) {
    RandomComplexOptions options;
    options.num_vertices = n;
    options.edge_probability = 0.5;
    options.max_dimension = 2;
    const auto complex = random_flag_complex(options, rng);
    const std::size_t edges = complex.count(1);
    if (edges > lo && edges <= hi)
      return sparse_combinatorial_laplacian(complex, 1);
  }
}

struct OracleFixture {
  SparseScaledHamiltonian sparse;
  std::size_t q = 0;
  std::vector<std::size_t> system;

  explicit OracleFixture(std::size_t target_qubits) {
    const SparseMatrix laplacian = sample_sparse_laplacian(target_qubits);
    sparse = rescale_laplacian_sparse(pad_laplacian_sparse(laplacian), 6.0);
    q = sparse.num_qubits;
    for (std::size_t w = 1; w <= q; ++w) system.push_back(w);
  }

  /// (1+q)-qubit state with the control wire (wire 0) set, so the
  /// controlled oracle actually fires on every block.
  Statevector initial_state() const {
    Statevector state(1 + q);
    state.set_basis_state(std::uint64_t{1} << q);
    return state;
  }
};

void BM_DenseOracleControlledPower(benchmark::State& state) {
  const OracleFixture fixture(static_cast<std::size_t>(state.range(0)));
  const RealMatrix dense_h = fixture.sparse.matrix.to_dense();
  for (auto _ : state) {
    const HamiltonianExponential exponential(dense_h);  // O(8^q) eigensolve
    const ComplexMatrix u = exponential.unitary(kBenchPower);
    Statevector sv = fixture.initial_state();
    sv.apply_unitary(u, fixture.system, {0});
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.counters["q"] = static_cast<double>(fixture.q);
}

void BM_DenseOracleAmortized(benchmark::State& state) {
  const OracleFixture fixture(static_cast<std::size_t>(state.range(0)));
  const HamiltonianExponential exponential(
      fixture.sparse.matrix.to_dense());
  for (auto _ : state) {
    const ComplexMatrix u = exponential.unitary(kBenchPower);
    Statevector sv = fixture.initial_state();
    sv.apply_unitary(u, fixture.system, {0});
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.counters["q"] = static_cast<double>(fixture.q);
}

void BM_SparseOracleControlledPower(benchmark::State& state) {
  const OracleFixture fixture(static_cast<std::size_t>(state.range(0)));
  std::size_t terms = 0;
  for (auto _ : state) {
    const SparseExpOperator op(fixture.sparse.matrix, kBenchPower,
                               fixture.sparse.spectrum_min(),
                               fixture.sparse.spectrum_max());
    Statevector sv = fixture.initial_state();
    sv.apply_operator(op, fixture.system, {0});
    terms = op.num_terms();
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.counters["q"] = static_cast<double>(fixture.q);
  state.counters["terms"] = static_cast<double>(terms);
  state.counters["nnz"] =
      static_cast<double>(fixture.sparse.matrix.nonzeros());
}

void BM_SparseOracleBatch(benchmark::State& state) {
  const OracleFixture fixture(static_cast<std::size_t>(state.range(0)));
  const std::size_t count = static_cast<std::size_t>(state.range(1));
  const SparseExpOperator op(fixture.sparse.matrix, kBenchPower,
                             fixture.sparse.spectrum_min(),
                             fixture.sparse.spectrum_max());
  const std::size_t d = op.dimension();
  Rng rng(17);
  std::vector<std::complex<double>> x(count * d), y(count * d);
  for (auto& v : x) v = {rng.uniform() - 0.5, rng.uniform() - 0.5};
  for (auto _ : state) {
    op.apply_batch(x.data(), y.data(), count);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["q"] = static_cast<double>(fixture.q);
  state.counters["terms"] = static_cast<double>(op.num_terms());
  state.counters["vectors_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(count),
      benchmark::Counter::kIsRate);
}

}  // namespace

// Dense stops at q = 9: the eigendecomposition alone is already ~minutes
// beyond that, which is the point of the sparse path.
BENCHMARK(BM_DenseOracleControlledPower)->DenseRange(8, 9)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DenseOracleAmortized)->DenseRange(8, 9)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SparseOracleControlledPower)->DenseRange(8, 12, 2)
    ->Unit(benchmark::kMillisecond);
// The batch runs on the shared pool: real time, not the caller's CPU time.
BENCHMARK(BM_SparseOracleBatch)
    ->Args({7, 4})->Args({7, 8})->Args({7, 64})->Args({7, 512})
    ->Args({13, 4})->Args({13, 8})
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
