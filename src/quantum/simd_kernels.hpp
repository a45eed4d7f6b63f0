/// \file simd_kernels.hpp
/// \brief Runtime-dispatched SIMD kernels for the hot simulation loops.
///
/// The contiguous pair and four-point sweeps (single- and two-qubit gates),
/// the bit-0/1 pair sweep (single-qubit gates whose pairs run shorter than
/// a vector), the diagonal table-lookup pass (fused diagonals), the fused
/// dense-block apply (block matvec) and the two halves of the blocked
/// Chebyshev oracle (the CSR product over a block of right-hand sides and
/// the recurrence's elementwise step) dominate every profile.  Each gets
/// explicit AVX2 and (where it pays) AVX-512 bodies in simd_kernels.cpp,
/// selected at runtime through common/cpu_features.hpp — one binary, widest
/// safe path.
///
/// **Bit-identity contract.**  The scalar branches below are the historical
/// loops, compiled in the caller's TU with the default (baseline x86-64, no
/// FMA) flags — so `QTDA_SIMD=0` reproduces the old arithmetic bit for bit.
/// Every vector path is *also* bitwise identical to its scalar branch: it
/// keeps one accumulator per output element, evaluates the same products in
/// the same sequence (complex multiplies use separate mul/add — never FMA —
/// matching the libstdc++ textbook formula up to commuting one addition),
/// and simd_kernels.cpp is compiled with -ffp-contract=off.  Vectorization
/// only ever runs across independent output elements (amplitude pairs,
/// block rows, right-hand sides), never across the terms of one sum.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/cpu_features.hpp"
#include "quantum/register_layout.hpp"

namespace qtda {
namespace simd {

namespace detail {
// Vector implementations (simd_kernels.cpp, function-level target
// attributes).  Only reached when level != kScalar.
void pair_sweep_vec(SimdLevel level, std::complex<double>* p0,
                    std::complex<double>* p1, std::uint64_t n,
                    const std::complex<double>* u);
void pair_sweep_vec(SimdLevel level, std::complex<float>* p0,
                    std::complex<float>* p1, std::uint64_t n,
                    const std::complex<float>* u);
void bit01_pair_sweep_vec(SimdLevel level, std::complex<double>* amp,
                          std::uint64_t dim, std::uint64_t mask,
                          std::uint64_t cmask, const std::complex<double>* u);
void four_point_sweep_vec(SimdLevel level, std::complex<double>* p0,
                          std::complex<double>* p1, std::complex<double>* p2,
                          std::complex<double>* p3, std::uint64_t n,
                          const std::complex<double>* u);
void four_point_sweep_vec(SimdLevel level, std::complex<float>* p0,
                          std::complex<float>* p1, std::complex<float>* p2,
                          std::complex<float>* p3, std::uint64_t n,
                          const std::complex<float>* u);
void diagonal_pass_vec(SimdLevel level, std::complex<double>* amp,
                       std::uint64_t first_index, std::uint64_t count,
                       const std::uint64_t* shifts, const std::uint64_t* masks,
                       std::size_t runs, const std::complex<double>* table);
void diagonal_pass_vec(SimdLevel level, std::complex<float>* amp,
                       std::uint64_t first_index, std::uint64_t count,
                       const std::uint64_t* shifts, const std::uint64_t* masks,
                       std::size_t runs, const std::complex<float>* table);
void block_matvec_vec(SimdLevel level, const std::complex<double>* u,
                      const std::complex<double>* in, std::complex<double>* out,
                      std::size_t block);
void block_matvec_vec(SimdLevel level, const std::complex<float>* u,
                      const std::complex<float>* in, std::complex<float>* out,
                      std::size_t block);
void csr_spmm_vec(SimdLevel level, const std::size_t* offsets,
                  const std::size_t* cols, const double* vals,
                  const std::complex<double>* x, std::complex<double>* y,
                  std::size_t width, std::size_t row_lo, std::size_t row_hi);
void csr_spmm_vec(SimdLevel level, const std::size_t* offsets,
                  const std::size_t* cols, const float* vals,
                  const std::complex<float>* x, std::complex<float>* y,
                  std::size_t width, std::size_t row_lo, std::size_t row_hi);
void chebyshev_first_step_vec(SimdLevel level, std::size_t n,
                              const std::complex<double>* x,
                              std::complex<double>* t, std::complex<double>* y,
                              double center, double inv_h,
                              std::complex<double> a0, std::complex<double> a1);
void chebyshev_first_step_vec(SimdLevel level, std::size_t n,
                              const std::complex<float>* x,
                              std::complex<float>* t, std::complex<float>* y,
                              float center, float inv_h, std::complex<float> a0,
                              std::complex<float> a1);
void chebyshev_step_vec(SimdLevel level, std::size_t n,
                        const std::complex<double>* s,
                        const std::complex<double>* t_cur,
                        std::complex<double>* t_prev, std::complex<double>* y,
                        double center, double inv_h, std::complex<double> ak);
void chebyshev_step_vec(SimdLevel level, std::size_t n,
                        const std::complex<float>* s,
                        const std::complex<float>* t_cur,
                        std::complex<float>* t_prev, std::complex<float>* y,
                        float center, float inv_h, std::complex<float> ak);
}  // namespace detail

/// In-place uncontrolled single-qubit update of the contiguous pair runs
/// p0[0..n) / p1[0..n): p0' = u00·p0 + u01·p1, p1' = u10·p0 + u11·p1.
/// \p u points at {u00, u01, u10, u11}.
template <typename R>
inline void pair_sweep(SimdLevel level, std::complex<R>* p0,
                       std::complex<R>* p1, std::uint64_t n,
                       const std::complex<R>* u) {
  if (level == SimdLevel::kScalar) {
    const std::complex<R> u00 = u[0], u01 = u[1], u10 = u[2], u11 = u[3];
    for (std::uint64_t k = 0; k < n; ++k) {
      const std::complex<R> a0 = p0[k];
      const std::complex<R> a1 = p1[k];
      p0[k] = u00 * a0 + u01 * a1;
      p1[k] = u10 * a0 + u11 * a1;
    }
    return;
  }
  detail::pair_sweep_vec(level, p0, p1, n, u);
}

/// Single-qubit update of the register amp[0..dim): every pair
/// (i, i | mask) with the mask bit of i clear and all of cmask set gets the
/// pair_sweep update, and no other amplitude is written.  It is meant for a
/// target or lowest control on bit 0 or 1, whose control-satisfied pairs
/// come in runs of one or two amplitudes.  AVX-512 double runs it over
/// aligned groups of four amplitudes (a lane shuffle pairs bit-0/1 partners,
/// a masked store applies bit-0/1 controls); every other level and the float
/// rail walk the same groups with the scalar pair update, lane by lane.
template <typename R>
inline void bit01_pair_sweep(SimdLevel level, std::complex<R>* amp,
                             std::uint64_t dim, std::uint64_t mask,
                             std::uint64_t cmask, const std::complex<R>* u) {
  if constexpr (std::is_same_v<R, double>) {
    if (level == SimdLevel::kAvx512 && dim >= 4) {
      detail::bit01_pair_sweep_vec(level, amp, dim, mask, cmask, u);
      return;
    }
  }
  // The vector body's walk over groups of four, one lane at a time: a
  // subset step per group instead of per pair.
  const std::uint64_t low_controls = cmask & 3;
  const std::uint64_t lanes = dim < 4 ? dim : 4;
  for_each_block_base(dim, mask | 3, cmask & ~std::uint64_t{3},
                      [&](std::uint64_t base) {
    for (std::uint64_t j = 0; j < lanes; ++j) {
      if ((j & mask) != 0 || (j & low_controls) != low_controls) continue;
      std::complex<R>* p0 = amp + base + j;
      pair_sweep(SimdLevel::kScalar, p0, p0 + mask, 1, u);
    }
  });
}

/// In-place uncontrolled two-qubit update of the four contiguous runs
/// p0..p3 (local indices 00, 01, 10, 11) under the row-major 4×4 matrix
/// \p u.  Accumulation order matches the engines' block row-dot.
template <typename R>
inline void four_point_sweep(SimdLevel level, std::complex<R>* p0,
                             std::complex<R>* p1, std::complex<R>* p2,
                             std::complex<R>* p3, std::uint64_t n,
                             const std::complex<R>* u) {
  if (level == SimdLevel::kScalar) {
    const std::complex<R>* u0 = u;
    const std::complex<R>* u1 = u + 4;
    const std::complex<R>* u2 = u + 8;
    const std::complex<R>* u3 = u + 12;
    for (std::uint64_t k = 0; k < n; ++k) {
      const std::complex<R> a0 = p0[k];
      const std::complex<R> a1 = p1[k];
      const std::complex<R> a2 = p2[k];
      const std::complex<R> a3 = p3[k];
      std::complex<R> acc0{};
      acc0 += u0[0] * a0; acc0 += u0[1] * a1; acc0 += u0[2] * a2; acc0 += u0[3] * a3;
      std::complex<R> acc1{};
      acc1 += u1[0] * a0; acc1 += u1[1] * a1; acc1 += u1[2] * a2; acc1 += u1[3] * a3;
      std::complex<R> acc2{};
      acc2 += u2[0] * a0; acc2 += u2[1] * a1; acc2 += u2[2] * a2; acc2 += u2[3] * a3;
      std::complex<R> acc3{};
      acc3 += u3[0] * a0; acc3 += u3[1] * a1; acc3 += u3[2] * a2; acc3 += u3[3] * a3;
      p0[k] = acc0;
      p1[k] = acc1;
      p2[k] = acc2;
      p3[k] = acc3;
    }
    return;
  }
  detail::four_point_sweep_vec(level, p0, p1, p2, p3, n, u);
}

/// Fused-diagonal pass over the run amp[0..count) holding global indices
/// [first_index, first_index + count): amp[k] *= table[extract(i)].
template <typename R>
inline void diagonal_pass(SimdLevel level, std::complex<R>* amp,
                          std::uint64_t first_index, std::uint64_t count,
                          const DiagonalExtract& extract,
                          const std::complex<R>* table) {
  if (level == SimdLevel::kScalar) {
    apply_diagonal_run(amp, first_index, count, extract, table);
    return;
  }
  detail::diagonal_pass_vec(level, amp, first_index, count,
                            extract.shifts.data(), extract.masks.data(),
                            extract.shifts.size(), table);
}

/// Dense block×block row-major matvec: out = u·in (out must not alias in).
/// Per-row accumulation is sequential in c at every level, so results are
/// bitwise identical to the scalar row-dot.
template <typename R>
inline void block_matvec(SimdLevel level, const std::complex<R>* u,
                         const std::complex<R>* in, std::complex<R>* out,
                         std::size_t block) {
  if (level == SimdLevel::kScalar || block < 2) {
    for (std::size_t r = 0; r < block; ++r) {
      std::complex<R> acc{};
      const std::complex<R>* urow = u + r * block;
      for (std::size_t c = 0; c < block; ++c) acc += urow[c] * in[c];
      out[r] = acc;
    }
    return;
  }
  detail::block_matvec_vec(level, u, in, out, block);
}

/// CSR product over the row range [row_lo, row_hi) with a block of \p width
/// right-hand sides stored interleaved, row-major [rows × width]:
/// y[r·width + j] = Σ_k vals[k]·x[cols[k]·width + j].  Each CSR entry is
/// loaded once per row and applied to every column; each column sums its
/// row's nonzeros from zero in stored order — the scalar row dot, so every
/// level gives every column exactly the single-vector result.
template <typename R>
inline void csr_spmm_rows(SimdLevel level, const std::size_t* offsets,
                          const std::size_t* cols, const R* vals,
                          const std::complex<R>* x, std::complex<R>* y,
                          std::size_t width, std::size_t row_lo,
                          std::size_t row_hi) {
  if (level == SimdLevel::kScalar) {
    for (std::size_t r = row_lo; r < row_hi; ++r) {
      for (std::size_t j = 0; j < width; ++j) {
        std::complex<R> acc{};
        for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k)
          acc += vals[k] * x[cols[k] * width + j];
        y[r * width + j] = acc;
      }
    }
    return;
  }
  detail::csr_spmm_vec(level, offsets, cols, vals, x, y, width, row_lo,
                       row_hi);
}

/// First two terms of the Chebyshev expansion over n elements: on entry
/// t = A·x; on exit t = T_1·x = (t − c·x)·inv_h and y = a0·x + a1·t.
template <typename R>
inline void chebyshev_first_step(SimdLevel level, std::size_t n,
                                 const std::complex<R>* x, std::complex<R>* t,
                                 std::complex<R>* y, R center, R inv_h,
                                 std::complex<R> a0, std::complex<R> a1) {
  if (level == SimdLevel::kScalar) {
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = a0 * x[i];
      t[i] = (t[i] - center * x[i]) * inv_h;
      y[i] += a1 * t[i];
    }
    return;
  }
  detail::chebyshev_first_step_vec(level, n, x, t, y, center, inv_h, a0, a1);
}

/// One Chebyshev term over n elements, with s = A·T_{k−1}·x:
/// next = 2·(s − c·t_cur)·inv_h − t_prev (= T_k·x) overwrites t_prev and
/// y += ak·next.
template <typename R>
inline void chebyshev_step(SimdLevel level, std::size_t n,
                           const std::complex<R>* s,
                           const std::complex<R>* t_cur,
                           std::complex<R>* t_prev, std::complex<R>* y,
                           R center, R inv_h, std::complex<R> ak) {
  if (level == SimdLevel::kScalar) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::complex<R> next =
          R{2} * (s[i] - center * t_cur[i]) * inv_h - t_prev[i];
      t_prev[i] = next;
      y[i] += ak * next;
    }
    return;
  }
  detail::chebyshev_step_vec(level, n, s, t_cur, t_prev, y, center, inv_h, ak);
}

}  // namespace simd
}  // namespace qtda
