/// \file micro_simd.cpp
/// \brief google-benchmark microbenches for the vectorized hot loops, each
/// at {double, float} × {scalar, simd}.
///
/// The kernels take the dispatch level as an argument, so the scalar and
/// vector variants of one loop run in one process on identical data — the
/// speedup ratio in BENCH_micro.json is the evidence for (or against) the
/// fusion cost-model constants in quantum/compiler.cpp.  On hosts without
/// AVX2 the "simd" variants degrade to the scalar path; the recorded pair
/// then shows ratio ≈ 1, which is itself informative.

#include <benchmark/benchmark.h>

#include <complex>
#include <cstdint>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/random.hpp"
#include "quantum/register_layout.hpp"
#include "quantum/simd_kernels.hpp"

namespace {

using namespace qtda;

SimdLevel level_for(std::int64_t simd) {
  return simd == 0 ? SimdLevel::kScalar : detected_simd_level();
}

template <typename R>
std::vector<std::complex<R>> random_amps(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<R>> amps(n);
  for (auto& a : amps)
    a = {static_cast<R>(rng.uniform() - 0.5),
         static_cast<R>(rng.uniform() - 0.5)};
  return amps;
}

// ---------------------------------------------------------------------------
// Contiguous pair sweep (uncontrolled single-qubit gate).
// ---------------------------------------------------------------------------

template <typename R>
void BM_PairSweep(benchmark::State& state) {
  const SimdLevel level = level_for(state.range(0));
  const std::size_t n = 1ULL << 16;
  auto amps = random_amps<R>(2 * n, 7);
  const auto u = random_amps<R>(4, 11);
  for (auto _ : state) {
    simd::pair_sweep(level, amps.data(), amps.data() + n, n, u.data());
    benchmark::DoNotOptimize(amps.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_PairSweep<double>)->Arg(0)->Arg(1);
BENCHMARK(BM_PairSweep<float>)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Diagonal table-lookup pass (fused controlled-phase ladder).
// ---------------------------------------------------------------------------

template <typename R>
void BM_DiagonalPass(benchmark::State& state) {
  const SimdLevel level = level_for(state.range(0));
  const std::size_t n = 1ULL << 17;
  auto amps = random_amps<R>(n, 13);
  // A 6-wide diagonal split across two bit runs of the 17-bit index — the
  // shape the compiler's wide fused diagonals produce.
  DiagonalExtract extract;
  extract.shifts = {11, 4};
  extract.masks = {0x7, 0x38};
  const auto table = random_amps<R>(64, 17);
  for (auto _ : state) {
    simd::diagonal_pass(level, amps.data(), 0, n, extract, table.data());
    benchmark::DoNotOptimize(amps.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DiagonalPass<double>)->Arg(0)->Arg(1);
BENCHMARK(BM_DiagonalPass<float>)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Fused dense-block apply (gathered 2^w block × matrix).
// ---------------------------------------------------------------------------

template <typename R>
void BM_BlockMatvec(benchmark::State& state) {
  const SimdLevel level = level_for(state.range(0));
  const std::size_t block = 16;  // a fused width-4 op
  const auto u = random_amps<R>(block * block, 19);
  const auto in = random_amps<R>(block, 23);
  std::vector<std::complex<R>> out(block);
  for (auto _ : state) {
    // One plan op touches 2^n / block such blocks; iterate enough of them
    // that the timer sees kernel cost, not loop overhead.
    for (int rep = 0; rep < 1024; ++rep) {
      simd::block_matvec(level, u.data(), in.data(), out.data(), block);
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(1024 * block * block));
}
BENCHMARK(BM_BlockMatvec<double>)->Arg(0)->Arg(1);
BENCHMARK(BM_BlockMatvec<float>)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Blocked Chebyshev oracle: the CSR product over an interleaved block of
// eight right-hand sides, and the recurrence's elementwise step over the
// same block.  Laplacian-like rows: four nonzeros clustered near the
// diagonal (the oracle's Laplacians average about three).
// ---------------------------------------------------------------------------

constexpr std::size_t kOracleRows = 1ULL << 12;
constexpr std::size_t kOracleWidth = 8;

template <typename R>
void BM_CsrSpmm(benchmark::State& state) {
  const SimdLevel level = level_for(state.range(0));
  std::vector<std::size_t> offsets(kOracleRows + 1);
  std::vector<std::size_t> cols;
  std::vector<R> vals;
  Rng rng(29);
  for (std::size_t r = 0; r < kOracleRows; ++r) {
    offsets[r] = cols.size();
    for (std::size_t k = 0; k < 4; ++k) {
      cols.push_back((r + 3 * k) % kOracleRows);
      vals.push_back(static_cast<R>(rng.uniform() - 0.5));
    }
  }
  offsets[kOracleRows] = cols.size();
  const auto x = random_amps<R>(kOracleRows * kOracleWidth, 31);
  std::vector<std::complex<R>> y(kOracleRows * kOracleWidth);
  for (auto _ : state) {
    simd::csr_spmm_rows(level, offsets.data(), cols.data(), vals.data(),
                        x.data(), y.data(), kOracleWidth, 0, kOracleRows);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(cols.size() * kOracleWidth));
}
BENCHMARK(BM_CsrSpmm<double>)->Arg(0)->Arg(1);
BENCHMARK(BM_CsrSpmm<float>)->Arg(0)->Arg(1);

template <typename R>
void BM_ChebyshevStep(benchmark::State& state) {
  const SimdLevel level = level_for(state.range(0));
  const std::size_t n = kOracleRows * kOracleWidth;
  const auto s = random_amps<R>(n, 37);
  const auto t_cur = random_amps<R>(n, 41);
  auto t_prev = random_amps<R>(n, 43);
  auto y = random_amps<R>(n, 47);
  // Repeated in place, t_prev alternates between two values and y grows
  // linearly, so every iteration stays finite.
  const R center = static_cast<R>(0.25);
  const R inv_h = static_cast<R>(0.25);
  const std::complex<R> ak{static_cast<R>(0.3), static_cast<R>(-0.2)};
  for (auto _ : state) {
    simd::chebyshev_step(level, n, s.data(), t_cur.data(), t_prev.data(),
                         y.data(), center, inv_h, ak);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ChebyshevStep<double>)->Arg(0)->Arg(1);
BENCHMARK(BM_ChebyshevStep<float>)->Arg(0)->Arg(1);

}  // namespace
