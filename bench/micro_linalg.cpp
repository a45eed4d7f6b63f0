/// \file micro_linalg.cpp
/// \brief google-benchmark microbenches for the linear-algebra substrate.
#include <benchmark/benchmark.h>

#include "common/random.hpp"
#include "linalg/gershgorin.hpp"
#include "linalg/matrix_exp.hpp"
#include "linalg/matrix_ops.hpp"
#include "linalg/rank.hpp"
#include "linalg/symmetric_eigen.hpp"

namespace {

using namespace qtda;

RealMatrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RealMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = rng.uniform(-2.0, 2.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

RealMatrix random_pm_one(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  Rng rng(seed);
  RealMatrix a(rows, cols);
  for (std::size_t i = 0; i < a.size(); ++i)
    a.data()[i] = static_cast<double>(rng.uniform_int(-1, 1));
  return a;
}

void BM_SymmetricEigenvalues(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_symmetric(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(symmetric_eigenvalues(a).front());
  }
}
BENCHMARK(BM_SymmetricEigenvalues)->RangeMultiplier(2)->Range(8, 256);

void BM_SymmetricEigenDecomposition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_symmetric(n, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(symmetric_eigen(a).values.front());
  }
}
BENCHMARK(BM_SymmetricEigenDecomposition)->RangeMultiplier(2)->Range(8, 256);

void BM_RankGaussian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_pm_one(n, n + 10, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rank(a));
  }
}
BENCHMARK(BM_RankGaussian)->RangeMultiplier(2)->Range(8, 256);

void BM_RankModP(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_pm_one(n, n + 10, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rank_mod_p(a));
  }
}
BENCHMARK(BM_RankModP)->RangeMultiplier(2)->Range(8, 256);

void BM_MatrixExponential(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto h = random_symmetric(n, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(unitary_exp(h).rows());
  }
}
BENCHMARK(BM_MatrixExponential)->RangeMultiplier(2)->Range(8, 64);

void BM_CachedUnitaryPowers(benchmark::State& state) {
  // QPE asks for e^{iH·2^j}; the cached eigendecomposition amortizes this.
  const auto n = static_cast<std::size_t>(state.range(0));
  const HamiltonianExponential exp_h(random_symmetric(n, 13));
  for (auto _ : state) {
    for (double s : {1.0, 2.0, 4.0, 8.0}) {
      benchmark::DoNotOptimize(exp_h.unitary(s).rows());
    }
  }
}
BENCHMARK(BM_CachedUnitaryPowers)->RangeMultiplier(2)->Range(8, 32);

void BM_GershgorinBound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_symmetric(n, 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gershgorin_max(a));
  }
}
BENCHMARK(BM_GershgorinBound)->RangeMultiplier(4)->Range(16, 1024);

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_symmetric(n, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, a).rows());
  }
}
BENCHMARK(BM_Matmul)->RangeMultiplier(2)->Range(16, 256);

}  // namespace
