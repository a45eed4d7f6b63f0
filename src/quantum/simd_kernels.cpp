/// \file simd_kernels.cpp
/// \brief AVX2 / AVX-512 implementations of the hot loops.
///
/// Every function carries a function-level target attribute instead of the
/// whole TU being built with -mavx2/-mavx512f: the file compiles for the
/// baseline architecture, the vector bodies opt in per function, and the
/// dispatchers at the bottom pick a body the probed CPU can execute.  The
/// build adds -ffp-contract=off for this file (see src/quantum/CMakeLists);
/// together with the deliberate absence of "fma" from the target attributes
/// that keeps every product/sum a separately rounded operation, which the
/// bit-identity contract of simd_kernels.hpp depends on.
///
/// Complex multiply lane recipe (the workhorse): with a = (ar, ai) and
/// b = (br, bi) interleaved in even/odd lanes,
///   t0 = a · dup_even(b) = (ar·br, ai·br)
///   t1 = swap(a) · dup_odd(b) = (ai·bi, ar·bi)
///   addsub(t0, t1) = (ar·br − ai·bi, ai·br + ar·bi)
/// — the libstdc++ textbook product with the two imaginary terms added in
/// the commuted order, which IEEE addition makes bitwise identical.
/// AVX-512 has no addsub; it is emulated by XOR-flipping the sign bit of
/// t1's even lanes and adding, exact because a − b ≡ a + (−b).
#include "quantum/simd_kernels.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define QTDA_X86_SIMD 1
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
// GCC's avx512fintrin.h implements _mm512_undefined_pd() as a
// self-initialized local, which the uninitialized-use warnings flag at every
// _mm512_permute_pd / _mm512_broadcast_f64x2 inline site.  Known header
// noise, not a real read.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#else
#define QTDA_X86_SIMD 0
#endif

namespace qtda {
namespace simd {
namespace detail {

namespace {

/// Table index of global index i under a fused-diagonal extraction recipe
/// (scalar; the index math is integer and identical at every level).
inline std::uint64_t extract_local(std::uint64_t i, const std::uint64_t* shifts,
                                   const std::uint64_t* masks,
                                   std::size_t runs) {
  std::uint64_t local = 0;
  for (std::size_t r = 0; r < runs; ++r) local |= (i >> shifts[r]) & masks[r];
  return local;
}

#if QTDA_X86_SIMD

#define QTDA_TARGET_AVX2 __attribute__((target("avx2")))
#define QTDA_TARGET_AVX512 __attribute__((target("avx512f,avx512dq,avx512vl")))

constexpr long long kSignBit64 = static_cast<long long>(0x8000000000000000ULL);
constexpr long long kSignBit32Lo = 0x80000000LL;  // sign of the even float lane

// ---------------------------------------------------------------------------
// Complex-multiply lane helpers.
// ---------------------------------------------------------------------------

QTDA_TARGET_AVX2 inline __m256d cmul_pd(__m256d a, __m256d b) {
  const __m256d br = _mm256_movedup_pd(b);       // (br, br) per complex
  const __m256d bi = _mm256_permute_pd(b, 0xF);  // (bi, bi) per complex
  const __m256d as = _mm256_permute_pd(a, 0x5);  // (ai, ar) per complex
  return _mm256_addsub_pd(_mm256_mul_pd(a, br), _mm256_mul_pd(as, bi));
}

QTDA_TARGET_AVX2 inline __m256 cmul_ps(__m256 a, __m256 b) {
  const __m256 br = _mm256_moveldup_ps(b);
  const __m256 bi = _mm256_movehdup_ps(b);
  const __m256 as = _mm256_permute_ps(a, 0xB1);
  return _mm256_addsub_ps(_mm256_mul_ps(a, br), _mm256_mul_ps(as, bi));
}

QTDA_TARGET_AVX512 inline __m512d cmul512_pd(__m512d a, __m512d b) {
  const __m512d br = _mm512_movedup_pd(b);
  const __m512d bi = _mm512_permute_pd(b, 0xFF);
  const __m512d as = _mm512_permute_pd(a, 0x55);
  const __m512d t1 = _mm512_mul_pd(as, bi);
  const __m512i sign = _mm512_set_epi64(0, kSignBit64, 0, kSignBit64,
                                        0, kSignBit64, 0, kSignBit64);
  return _mm512_add_pd(_mm512_mul_pd(a, br),
                       _mm512_xor_pd(t1, _mm512_castsi512_pd(sign)));
}

QTDA_TARGET_AVX512 inline __m512 cmul512_ps(__m512 a, __m512 b) {
  const __m512 br = _mm512_moveldup_ps(b);
  const __m512 bi = _mm512_movehdup_ps(b);
  const __m512 as = _mm512_permute_ps(a, 0xB1);
  const __m512 t1 = _mm512_mul_ps(as, bi);
  const __m512i sign = _mm512_set1_epi64(kSignBit32Lo);
  return _mm512_add_ps(_mm512_mul_ps(a, br),
                       _mm512_xor_ps(t1, _mm512_castsi512_ps(sign)));
}

/// Broadcasts one complex<double> to both complex slots of a ymm.
QTDA_TARGET_AVX2 inline __m256d broadcast_cd(const std::complex<double>* c) {
  return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(c));
}

/// Broadcasts one complex<float> to all four complex slots of a ymm.
QTDA_TARGET_AVX2 inline __m256 broadcast_cf(const std::complex<float>* c) {
  const __m128 v =
      _mm_castsi128_ps(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(c)));
  const __m128 pair = _mm_shuffle_ps(v, v, 0x44);  // (re, im, re, im)
  return _mm256_insertf128_ps(_mm256_castps128_ps256(pair), pair, 1);
}

/// Broadcasts one complex<double> to all four complex slots of a zmm.
QTDA_TARGET_AVX512 inline __m512d broadcast512_cd(const std::complex<double>* c) {
  return _mm512_broadcast_f64x2(
      _mm_loadu_pd(reinterpret_cast<const double*>(c)));
}

/// Broadcasts one complex<float> to all eight complex slots of a zmm.
QTDA_TARGET_AVX512 inline __m512 broadcast512_cf(const std::complex<float>* c) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(*c), "complex<float> is 8 bytes");
  std::memcpy(&bits, c, sizeof(bits));
  return _mm512_castsi512_ps(_mm512_set1_epi64(static_cast<long long>(bits)));
}

// ---------------------------------------------------------------------------
// Pair sweep (uncontrolled single-qubit gate over contiguous runs).
// ---------------------------------------------------------------------------

QTDA_TARGET_AVX2 void pair_sweep_avx2_pd(std::complex<double>* p0,
                                         std::complex<double>* p1,
                                         std::uint64_t n,
                                         const std::complex<double>* u) {
  double* d0 = reinterpret_cast<double*>(p0);
  double* d1 = reinterpret_cast<double*>(p1);
  const __m256d u00 = broadcast_cd(u + 0);
  const __m256d u01 = broadcast_cd(u + 1);
  const __m256d u10 = broadcast_cd(u + 2);
  const __m256d u11 = broadcast_cd(u + 3);
  std::uint64_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m256d a0 = _mm256_loadu_pd(d0 + 2 * k);
    const __m256d a1 = _mm256_loadu_pd(d1 + 2 * k);
    _mm256_storeu_pd(d0 + 2 * k,
                     _mm256_add_pd(cmul_pd(u00, a0), cmul_pd(u01, a1)));
    _mm256_storeu_pd(d1 + 2 * k,
                     _mm256_add_pd(cmul_pd(u10, a0), cmul_pd(u11, a1)));
  }
  for (; k < n; ++k) {
    const std::complex<double> a0 = p0[k];
    const std::complex<double> a1 = p1[k];
    p0[k] = u[0] * a0 + u[1] * a1;
    p1[k] = u[2] * a0 + u[3] * a1;
  }
}

QTDA_TARGET_AVX512 void pair_sweep_avx512_pd(std::complex<double>* p0,
                                             std::complex<double>* p1,
                                             std::uint64_t n,
                                             const std::complex<double>* u) {
  double* d0 = reinterpret_cast<double*>(p0);
  double* d1 = reinterpret_cast<double*>(p1);
  const __m512d u00 = broadcast512_cd(u + 0);
  const __m512d u01 = broadcast512_cd(u + 1);
  const __m512d u10 = broadcast512_cd(u + 2);
  const __m512d u11 = broadcast512_cd(u + 3);
  std::uint64_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m512d a0 = _mm512_loadu_pd(d0 + 2 * k);
    const __m512d a1 = _mm512_loadu_pd(d1 + 2 * k);
    _mm512_storeu_pd(d0 + 2 * k,
                     _mm512_add_pd(cmul512_pd(u00, a0), cmul512_pd(u01, a1)));
    _mm512_storeu_pd(d1 + 2 * k,
                     _mm512_add_pd(cmul512_pd(u10, a0), cmul512_pd(u11, a1)));
  }
  for (; k < n; ++k) {
    const std::complex<double> a0 = p0[k];
    const std::complex<double> a1 = p1[k];
    p0[k] = u[0] * a0 + u[1] * a1;
    p1[k] = u[2] * a0 + u[3] * a1;
  }
}

QTDA_TARGET_AVX2 void pair_sweep_avx2_ps(std::complex<float>* p0,
                                         std::complex<float>* p1,
                                         std::uint64_t n,
                                         const std::complex<float>* u) {
  float* d0 = reinterpret_cast<float*>(p0);
  float* d1 = reinterpret_cast<float*>(p1);
  const __m256 u00 = broadcast_cf(u + 0);
  const __m256 u01 = broadcast_cf(u + 1);
  const __m256 u10 = broadcast_cf(u + 2);
  const __m256 u11 = broadcast_cf(u + 3);
  std::uint64_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256 a0 = _mm256_loadu_ps(d0 + 2 * k);
    const __m256 a1 = _mm256_loadu_ps(d1 + 2 * k);
    _mm256_storeu_ps(d0 + 2 * k,
                     _mm256_add_ps(cmul_ps(u00, a0), cmul_ps(u01, a1)));
    _mm256_storeu_ps(d1 + 2 * k,
                     _mm256_add_ps(cmul_ps(u10, a0), cmul_ps(u11, a1)));
  }
  for (; k < n; ++k) {
    const std::complex<float> a0 = p0[k];
    const std::complex<float> a1 = p1[k];
    p0[k] = u[0] * a0 + u[1] * a1;
    p1[k] = u[2] * a0 + u[3] * a1;
  }
}

// ---------------------------------------------------------------------------
// Bit-0/1 pair sweep (single-qubit gate whose target or lowest control is
// bit 0 or 1).  A zmm holds the aligned group of four amplitudes whose
// indices differ in bits 0–1; the group walk fixes the controls above bit 1
// and skips the target bit when it lies above bit 1.
// ---------------------------------------------------------------------------

// The group walks below step with next_subset directly: a lambda handed
// to for_each_block_base would not inherit the AVX-512 target attribute.

/// The group body for a target on bit 0 or 1: the partner of lane j is lane
/// j ^ mask, which the 128-bit-lane shuffle \p kPartner brings in.  Lanes
/// with the target bit clear compute u00·a + u01·partner, lanes with it set
/// u11·a + u10·partner — the scalar u10·a0 + u11·a1 with its one addition
/// commuted, which IEEE addition makes bitwise identical.
template <int kPartner>
QTDA_TARGET_AVX512 void bit01_in_group_avx512_pd(
    double* d, std::uint64_t free_mask, std::uint64_t high_controls,
    __m512d same, __m512d other, __mmask8 store) {
  std::uint64_t sub = 0;
  do {
    double* group = d + 2 * (sub | high_controls);
    const __m512d a = _mm512_loadu_pd(group);
    const __m512d partner = _mm512_shuffle_f64x2(a, a, kPartner);
    _mm512_mask_storeu_pd(
        group, store,
        _mm512_add_pd(cmul512_pd(same, a), cmul512_pd(other, partner)));
  } while (next_subset(sub, free_mask));
}

QTDA_TARGET_AVX512 void bit01_pair_sweep_avx512_pd(
    std::complex<double>* amp, std::uint64_t dim, std::uint64_t mask,
    std::uint64_t cmask, const std::complex<double>* u) {
  double* d = reinterpret_cast<double*>(amp);
  // Store the lanes (two doubles each) whose bit-0/1 controls hold; the
  // group walk fixes the controls above bit 1 and skips a target above it.
  const std::uint64_t low_controls = cmask & 3;
  unsigned store = 0;
  for (unsigned j = 0; j < 4; ++j)
    if ((j & low_controls) == low_controls) store |= 3u << (2 * j);
  const auto store_mask = static_cast<__mmask8>(store);
  const std::uint64_t high_controls = cmask & ~std::uint64_t{3};
  const std::uint64_t free_mask = (dim - 1) & ~(mask | 3) & ~cmask;

  if (mask > 3) {
    // Partners in different groups: the pair sweep on whole groups.
    const __m512d u00 = broadcast512_cd(u + 0);
    const __m512d u01 = broadcast512_cd(u + 1);
    const __m512d u10 = broadcast512_cd(u + 2);
    const __m512d u11 = broadcast512_cd(u + 3);
    std::uint64_t sub = 0;
    do {
      const std::uint64_t base = sub | high_controls;
      double* d0 = d + 2 * base;
      double* d1 = d + 2 * (base | mask);
      const __m512d a0 = _mm512_loadu_pd(d0);
      const __m512d a1 = _mm512_loadu_pd(d1);
      _mm512_mask_storeu_pd(
          d0, store_mask,
          _mm512_add_pd(cmul512_pd(u00, a0), cmul512_pd(u01, a1)));
      _mm512_mask_storeu_pd(
          d1, store_mask,
          _mm512_add_pd(cmul512_pd(u10, a0), cmul512_pd(u11, a1)));
    } while (next_subset(sub, free_mask));
    return;
  }

  // Per-lane coefficients: lane j multiplies itself by u00 (target bit
  // clear) or u11 (set), and its partner by u01 or u10.
  std::complex<double> same[4];
  std::complex<double> other[4];
  for (unsigned j = 0; j < 4; ++j) {
    const bool set = (j & mask) != 0;
    same[j] = set ? u[3] : u[0];
    other[j] = set ? u[2] : u[1];
  }
  const __m512d same_v = _mm512_loadu_pd(reinterpret_cast<const double*>(same));
  const __m512d other_v =
      _mm512_loadu_pd(reinterpret_cast<const double*>(other));
  // Lane order (1, 0, 3, 2) swaps bit-0 partners, (2, 3, 0, 1) bit-1 ones.
  if (mask == 1)
    bit01_in_group_avx512_pd<0xB1>(d, free_mask, high_controls, same_v,
                                   other_v, store_mask);
  else
    bit01_in_group_avx512_pd<0x4E>(d, free_mask, high_controls, same_v,
                                   other_v, store_mask);
}

// ---------------------------------------------------------------------------
// Four-point sweep (uncontrolled two-qubit gate over contiguous runs).
// ---------------------------------------------------------------------------

QTDA_TARGET_AVX2 void four_point_sweep_avx2_pd(
    std::complex<double>* p0, std::complex<double>* p1,
    std::complex<double>* p2, std::complex<double>* p3, std::uint64_t n,
    const std::complex<double>* u) {
  double* d0 = reinterpret_cast<double*>(p0);
  double* d1 = reinterpret_cast<double*>(p1);
  double* d2 = reinterpret_cast<double*>(p2);
  double* d3 = reinterpret_cast<double*>(p3);
  std::uint64_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m256d a0 = _mm256_loadu_pd(d0 + 2 * k);
    const __m256d a1 = _mm256_loadu_pd(d1 + 2 * k);
    const __m256d a2 = _mm256_loadu_pd(d2 + 2 * k);
    const __m256d a3 = _mm256_loadu_pd(d3 + 2 * k);
    double* const outs[4] = {d0 + 2 * k, d1 + 2 * k, d2 + 2 * k, d3 + 2 * k};
    for (std::size_t r = 0; r < 4; ++r) {
      const std::complex<double>* urow = u + 4 * r;
      __m256d acc = _mm256_setzero_pd();
      acc = _mm256_add_pd(acc, cmul_pd(broadcast_cd(urow + 0), a0));
      acc = _mm256_add_pd(acc, cmul_pd(broadcast_cd(urow + 1), a1));
      acc = _mm256_add_pd(acc, cmul_pd(broadcast_cd(urow + 2), a2));
      acc = _mm256_add_pd(acc, cmul_pd(broadcast_cd(urow + 3), a3));
      _mm256_storeu_pd(outs[r], acc);
    }
  }
  for (; k < n; ++k) {
    const std::complex<double> a0 = p0[k];
    const std::complex<double> a1 = p1[k];
    const std::complex<double> a2 = p2[k];
    const std::complex<double> a3 = p3[k];
    std::complex<double>* const outs[4] = {p0 + k, p1 + k, p2 + k, p3 + k};
    for (std::size_t r = 0; r < 4; ++r) {
      const std::complex<double>* urow = u + 4 * r;
      std::complex<double> acc{};
      acc += urow[0] * a0;
      acc += urow[1] * a1;
      acc += urow[2] * a2;
      acc += urow[3] * a3;
      *outs[r] = acc;
    }
  }
}

QTDA_TARGET_AVX2 void four_point_sweep_avx2_ps(
    std::complex<float>* p0, std::complex<float>* p1, std::complex<float>* p2,
    std::complex<float>* p3, std::uint64_t n, const std::complex<float>* u) {
  float* d0 = reinterpret_cast<float*>(p0);
  float* d1 = reinterpret_cast<float*>(p1);
  float* d2 = reinterpret_cast<float*>(p2);
  float* d3 = reinterpret_cast<float*>(p3);
  std::uint64_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256 a0 = _mm256_loadu_ps(d0 + 2 * k);
    const __m256 a1 = _mm256_loadu_ps(d1 + 2 * k);
    const __m256 a2 = _mm256_loadu_ps(d2 + 2 * k);
    const __m256 a3 = _mm256_loadu_ps(d3 + 2 * k);
    float* const outs[4] = {d0 + 2 * k, d1 + 2 * k, d2 + 2 * k, d3 + 2 * k};
    for (std::size_t r = 0; r < 4; ++r) {
      const std::complex<float>* urow = u + 4 * r;
      __m256 acc = _mm256_setzero_ps();
      acc = _mm256_add_ps(acc, cmul_ps(broadcast_cf(urow + 0), a0));
      acc = _mm256_add_ps(acc, cmul_ps(broadcast_cf(urow + 1), a1));
      acc = _mm256_add_ps(acc, cmul_ps(broadcast_cf(urow + 2), a2));
      acc = _mm256_add_ps(acc, cmul_ps(broadcast_cf(urow + 3), a3));
      _mm256_storeu_ps(outs[r], acc);
    }
  }
  for (; k < n; ++k) {
    const std::complex<float> a0 = p0[k];
    const std::complex<float> a1 = p1[k];
    const std::complex<float> a2 = p2[k];
    const std::complex<float> a3 = p3[k];
    std::complex<float>* const outs[4] = {p0 + k, p1 + k, p2 + k, p3 + k};
    for (std::size_t r = 0; r < 4; ++r) {
      const std::complex<float>* urow = u + 4 * r;
      std::complex<float> acc{};
      acc += urow[0] * a0;
      acc += urow[1] * a1;
      acc += urow[2] * a2;
      acc += urow[3] * a3;
      *outs[r] = acc;
    }
  }
}

// ---------------------------------------------------------------------------
// Diagonal table-lookup pass.
// ---------------------------------------------------------------------------

QTDA_TARGET_AVX2 void diagonal_pass_avx2_pd(
    std::complex<double>* amp, std::uint64_t first_index, std::uint64_t count,
    const std::uint64_t* shifts, const std::uint64_t* masks, std::size_t runs,
    const std::complex<double>* table) {
  double* ap = reinterpret_cast<double*>(amp);
  const double* tp = reinterpret_cast<const double*>(table);
  std::uint64_t k = 0;
  for (; k + 2 <= count; k += 2) {
    const std::uint64_t i = first_index + k;
    const std::uint64_t l0 = extract_local(i, shifts, masks, runs);
    const std::uint64_t l1 = extract_local(i + 1, shifts, masks, runs);
    const __m128d t0 = _mm_loadu_pd(tp + 2 * l0);
    const __m128d t1 = _mm_loadu_pd(tp + 2 * l1);
    const __m256d t = _mm256_insertf128_pd(_mm256_castpd128_pd256(t0), t1, 1);
    const __m256d a = _mm256_loadu_pd(ap + 2 * k);
    _mm256_storeu_pd(ap + 2 * k, cmul_pd(a, t));
  }
  for (; k < count; ++k)
    amp[k] *= table[extract_local(first_index + k, shifts, masks, runs)];
}

QTDA_TARGET_AVX512 void diagonal_pass_avx512_pd(
    std::complex<double>* amp, std::uint64_t first_index, std::uint64_t count,
    const std::uint64_t* shifts, const std::uint64_t* masks, std::size_t runs,
    const std::complex<double>* table) {
  double* ap = reinterpret_cast<double*>(amp);
  const double* tp = reinterpret_cast<const double*>(table);
  std::uint64_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const std::uint64_t i = first_index + k;
    const std::uint64_t l0 = extract_local(i, shifts, masks, runs);
    const std::uint64_t l1 = extract_local(i + 1, shifts, masks, runs);
    const std::uint64_t l2 = extract_local(i + 2, shifts, masks, runs);
    const std::uint64_t l3 = extract_local(i + 3, shifts, masks, runs);
    const __m256d tlo = _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(tp + 2 * l0)),
        _mm_loadu_pd(tp + 2 * l1), 1);
    const __m256d thi = _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(tp + 2 * l2)),
        _mm_loadu_pd(tp + 2 * l3), 1);
    const __m512d t =
        _mm512_insertf64x4(_mm512_castpd256_pd512(tlo), thi, 1);
    const __m512d a = _mm512_loadu_pd(ap + 2 * k);
    _mm512_storeu_pd(ap + 2 * k, cmul512_pd(a, t));
  }
  for (; k < count; ++k)
    amp[k] *= table[extract_local(first_index + k, shifts, masks, runs)];
}

QTDA_TARGET_AVX2 void diagonal_pass_avx2_ps(
    std::complex<float>* amp, std::uint64_t first_index, std::uint64_t count,
    const std::uint64_t* shifts, const std::uint64_t* masks, std::size_t runs,
    const std::complex<float>* table) {
  float* ap = reinterpret_cast<float*>(amp);
  std::uint64_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const std::uint64_t i = first_index + k;
    const std::uint64_t l0 = extract_local(i, shifts, masks, runs);
    const std::uint64_t l1 = extract_local(i + 1, shifts, masks, runs);
    const std::uint64_t l2 = extract_local(i + 2, shifts, masks, runs);
    const std::uint64_t l3 = extract_local(i + 3, shifts, masks, runs);
    const __m256 t = _mm256_setr_ps(
        table[l0].real(), table[l0].imag(), table[l1].real(), table[l1].imag(),
        table[l2].real(), table[l2].imag(), table[l3].real(), table[l3].imag());
    const __m256 a = _mm256_loadu_ps(ap + 2 * k);
    _mm256_storeu_ps(ap + 2 * k, cmul_ps(a, t));
  }
  for (; k < count; ++k)
    amp[k] *= table[extract_local(first_index + k, shifts, masks, runs)];
}

// ---------------------------------------------------------------------------
// Dense block matvec (vectorized ACROSS output rows; per-row accumulation
// stays sequential in c, preserving the scalar row-dot bit for bit).
// ---------------------------------------------------------------------------

QTDA_TARGET_AVX2 void block_matvec_avx2_pd(const std::complex<double>* u,
                                           const std::complex<double>* in,
                                           std::complex<double>* out,
                                           std::size_t block) {
  const double* ud = reinterpret_cast<const double*>(u);
  double* outd = reinterpret_cast<double*>(out);
  std::size_t r = 0;
  for (; r + 2 <= block; r += 2) {
    const double* row0 = ud + 2 * r * block;
    const double* row1 = row0 + 2 * block;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t c = 0; c < block; ++c) {
      const __m256d uv = _mm256_insertf128_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(row0 + 2 * c)),
          _mm_loadu_pd(row1 + 2 * c), 1);
      acc = _mm256_add_pd(acc, cmul_pd(uv, broadcast_cd(in + c)));
    }
    _mm256_storeu_pd(outd + 2 * r, acc);
  }
  for (; r < block; ++r) {
    const std::complex<double>* urow = u + r * block;
    std::complex<double> acc{};
    for (std::size_t c = 0; c < block; ++c) acc += urow[c] * in[c];
    out[r] = acc;
  }
}

QTDA_TARGET_AVX2 void block_matvec_avx2_ps(const std::complex<float>* u,
                                           const std::complex<float>* in,
                                           std::complex<float>* out,
                                           std::size_t block) {
  float* outd = reinterpret_cast<float*>(out);
  std::size_t r = 0;
  for (; r + 4 <= block; r += 4) {
    const std::complex<float>* row0 = u + (r + 0) * block;
    const std::complex<float>* row1 = u + (r + 1) * block;
    const std::complex<float>* row2 = u + (r + 2) * block;
    const std::complex<float>* row3 = u + (r + 3) * block;
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t c = 0; c < block; ++c) {
      const __m256 uv = _mm256_setr_ps(
          row0[c].real(), row0[c].imag(), row1[c].real(), row1[c].imag(),
          row2[c].real(), row2[c].imag(), row3[c].real(), row3[c].imag());
      acc = _mm256_add_ps(acc, cmul_ps(uv, broadcast_cf(in + c)));
    }
    _mm256_storeu_ps(outd + 2 * r, acc);
  }
  for (; r < block; ++r) {
    const std::complex<float>* urow = u + r * block;
    std::complex<float> acc{};
    for (std::size_t c = 0; c < block; ++c) acc += urow[c] * in[c];
    out[r] = acc;
  }
}

// ---------------------------------------------------------------------------
// CSR product with a single right-hand side.  One complex fills an SSE
// register, so the gain is overlap instead of width: four rows advance
// together, each summing its own nonzeros in stored order (the scalar row
// dot), and their add chains hide each other's latency.  Baseline SSE2,
// reached from both vector levels at width 1.
// ---------------------------------------------------------------------------

inline __m128d spmv_term_pd(__m128d acc, double v, const double* x) {
  return _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(v), _mm_loadu_pd(x)));
}

inline __m128 spmv_term_ps(__m128 acc, float v, const float* x) {
  const __m128 xv = _mm_castsi128_ps(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x)));
  return _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(v), xv));
}

inline void store_pd(double* y, __m128d v) { _mm_storeu_pd(y, v); }

inline void store_ps(float* y, __m128 v) {
  _mm_storel_epi64(reinterpret_cast<__m128i*>(y), _mm_castps_si128(v));
}

/// V is __m128d over double or __m128 over float; one complex per register.
template <typename R, typename V, V (*term)(V, R, const R*),
          void (*store)(R*, V)>
void csr_spmv_interleaved(const std::size_t* offsets, const std::size_t* cols,
                          const R* vals, const R* x, R* y, std::size_t row_lo,
                          std::size_t row_hi) {
  std::size_t r = row_lo;
  for (; r + 4 <= row_hi; r += 4) {
    // Row r + j spans [o_j, o_{j+1}).
    const std::size_t o0 = offsets[r], o1 = offsets[r + 1];
    const std::size_t o2 = offsets[r + 2], o3 = offsets[r + 3];
    const std::size_t o4 = offsets[r + 4];
    const std::size_t common =
        std::min(std::min(o1 - o0, o2 - o1), std::min(o3 - o2, o4 - o3));
    V a0{}, a1{}, a2{}, a3{};
    for (std::size_t i = 0; i < common; ++i) {
      a0 = term(a0, vals[o0 + i], x + 2 * cols[o0 + i]);
      a1 = term(a1, vals[o1 + i], x + 2 * cols[o1 + i]);
      a2 = term(a2, vals[o2 + i], x + 2 * cols[o2 + i]);
      a3 = term(a3, vals[o3 + i], x + 2 * cols[o3 + i]);
    }
    for (std::size_t k = o0 + common; k < o1; ++k)
      a0 = term(a0, vals[k], x + 2 * cols[k]);
    for (std::size_t k = o1 + common; k < o2; ++k)
      a1 = term(a1, vals[k], x + 2 * cols[k]);
    for (std::size_t k = o2 + common; k < o3; ++k)
      a2 = term(a2, vals[k], x + 2 * cols[k]);
    for (std::size_t k = o3 + common; k < o4; ++k)
      a3 = term(a3, vals[k], x + 2 * cols[k]);
    store(y + 2 * r, a0);
    store(y + 2 * (r + 1), a1);
    store(y + 2 * (r + 2), a2);
    store(y + 2 * (r + 3), a3);
  }
  for (; r < row_hi; ++r) {
    V acc{};
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k)
      acc = term(acc, vals[k], x + 2 * cols[k]);
    store(y + 2 * r, acc);
  }
}

// ---------------------------------------------------------------------------
// Blocked CSR product (vectorized ACROSS the right-hand sides of a block;
// each lane sums its row's nonzeros from zero in stored order, preserving
// the scalar row dot bit for bit).  x and y rows are `lanes` reals wide.
// ---------------------------------------------------------------------------

QTDA_TARGET_AVX2 void csr_spmm_avx2_pd(const std::size_t* offsets,
                                       const std::size_t* cols,
                                       const double* vals,
                                       const std::complex<double>* x,
                                       std::complex<double>* y,
                                       std::size_t width, std::size_t row_lo,
                                       std::size_t row_hi) {
  const double* xd = reinterpret_cast<const double*>(x);
  double* yd = reinterpret_cast<double*>(y);
  const std::size_t lanes = 2 * width;
  for (std::size_t r = row_lo; r < row_hi; ++r) {
    const std::size_t begin = offsets[r];
    const std::size_t end = offsets[r + 1];
    double* out = yd + r * lanes;
    std::size_t j = 0;
    for (; j + 16 <= lanes; j += 16) {
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      for (std::size_t k = begin; k < end; ++k) {
        const __m256d v = _mm256_set1_pd(vals[k]);
        const double* in = xd + cols[k] * lanes + j;
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(v, _mm256_loadu_pd(in)));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(v, _mm256_loadu_pd(in + 4)));
        acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(v, _mm256_loadu_pd(in + 8)));
        acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(v, _mm256_loadu_pd(in + 12)));
      }
      _mm256_storeu_pd(out + j, acc0);
      _mm256_storeu_pd(out + j + 4, acc1);
      _mm256_storeu_pd(out + j + 8, acc2);
      _mm256_storeu_pd(out + j + 12, acc3);
    }
    for (; j + 4 <= lanes; j += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t k = begin; k < end; ++k)
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(_mm256_set1_pd(vals[k]),
                               _mm256_loadu_pd(xd + cols[k] * lanes + j)));
      _mm256_storeu_pd(out + j, acc);
    }
    if (j < lanes) {  // one complex column left (lanes is even)
      __m128d acc = _mm_setzero_pd();
      for (std::size_t k = begin; k < end; ++k)
        acc = _mm_add_pd(
            acc, _mm_mul_pd(_mm_set1_pd(vals[k]),
                            _mm_loadu_pd(xd + cols[k] * lanes + j)));
      _mm_storeu_pd(out + j, acc);
    }
  }
}

QTDA_TARGET_AVX512 void csr_spmm_avx512_pd(const std::size_t* offsets,
                                           const std::size_t* cols,
                                           const double* vals,
                                           const std::complex<double>* x,
                                           std::complex<double>* y,
                                           std::size_t width,
                                           std::size_t row_lo,
                                           std::size_t row_hi) {
  const double* xd = reinterpret_cast<const double*>(x);
  double* yd = reinterpret_cast<double*>(y);
  const std::size_t lanes = 2 * width;
  for (std::size_t r = row_lo; r < row_hi; ++r) {
    const std::size_t begin = offsets[r];
    const std::size_t end = offsets[r + 1];
    double* out = yd + r * lanes;
    std::size_t j = 0;
    for (; j + 16 <= lanes; j += 16) {
      __m512d acc0 = _mm512_setzero_pd();
      __m512d acc1 = _mm512_setzero_pd();
      for (std::size_t k = begin; k < end; ++k) {
        const __m512d v = _mm512_set1_pd(vals[k]);
        const double* in = xd + cols[k] * lanes + j;
        acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(v, _mm512_loadu_pd(in)));
        acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(v, _mm512_loadu_pd(in + 8)));
      }
      _mm512_storeu_pd(out + j, acc0);
      _mm512_storeu_pd(out + j + 8, acc1);
    }
    // Masked tail: lanes past the block are neither read nor written.
    for (; j < lanes; j += 8) {
      const std::size_t left = lanes - j;
      const __mmask8 mask =
          left >= 8 ? __mmask8{0xFF} : static_cast<__mmask8>((1u << left) - 1);
      __m512d acc = _mm512_setzero_pd();
      for (std::size_t k = begin; k < end; ++k)
        acc = _mm512_add_pd(
            acc, _mm512_mul_pd(_mm512_set1_pd(vals[k]),
                               _mm512_maskz_loadu_pd(
                                   mask, xd + cols[k] * lanes + j)));
      _mm512_mask_storeu_pd(out + j, mask, acc);
    }
  }
}

QTDA_TARGET_AVX2 void csr_spmm_avx2_ps(const std::size_t* offsets,
                                       const std::size_t* cols,
                                       const float* vals,
                                       const std::complex<float>* x,
                                       std::complex<float>* y,
                                       std::size_t width, std::size_t row_lo,
                                       std::size_t row_hi) {
  const float* xf = reinterpret_cast<const float*>(x);
  float* yf = reinterpret_cast<float*>(y);
  const std::size_t lanes = 2 * width;
  for (std::size_t r = row_lo; r < row_hi; ++r) {
    const std::size_t begin = offsets[r];
    const std::size_t end = offsets[r + 1];
    float* out = yf + r * lanes;
    std::size_t j = 0;
    for (; j + 16 <= lanes; j += 16) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (std::size_t k = begin; k < end; ++k) {
        const __m256 v = _mm256_set1_ps(vals[k]);
        const float* in = xf + cols[k] * lanes + j;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(v, _mm256_loadu_ps(in)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(v, _mm256_loadu_ps(in + 8)));
      }
      _mm256_storeu_ps(out + j, acc0);
      _mm256_storeu_ps(out + j + 8, acc1);
    }
    for (; j + 8 <= lanes; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t k = begin; k < end; ++k)
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(vals[k]),
                               _mm256_loadu_ps(xf + cols[k] * lanes + j)));
      _mm256_storeu_ps(out + j, acc);
    }
    for (; j + 4 <= lanes; j += 4) {
      __m128 acc = _mm_setzero_ps();
      for (std::size_t k = begin; k < end; ++k)
        acc = _mm_add_ps(
            acc, _mm_mul_ps(_mm_set1_ps(vals[k]),
                            _mm_loadu_ps(xf + cols[k] * lanes + j)));
      _mm_storeu_ps(out + j, acc);
    }
    if (j < lanes) {  // one complex column left: a 64-bit load and store
      __m128 acc = _mm_setzero_ps();
      for (std::size_t k = begin; k < end; ++k) {
        const __m128 in = _mm_castsi128_ps(_mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(xf + cols[k] * lanes + j)));
        acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(vals[k]), in));
      }
      _mm_storel_epi64(reinterpret_cast<__m128i*>(out + j),
                       _mm_castps_si128(acc));
    }
  }
}

QTDA_TARGET_AVX512 void csr_spmm_avx512_ps(const std::size_t* offsets,
                                           const std::size_t* cols,
                                           const float* vals,
                                           const std::complex<float>* x,
                                           std::complex<float>* y,
                                           std::size_t width,
                                           std::size_t row_lo,
                                           std::size_t row_hi) {
  const float* xf = reinterpret_cast<const float*>(x);
  float* yf = reinterpret_cast<float*>(y);
  const std::size_t lanes = 2 * width;
  for (std::size_t r = row_lo; r < row_hi; ++r) {
    const std::size_t begin = offsets[r];
    const std::size_t end = offsets[r + 1];
    float* out = yf + r * lanes;
    for (std::size_t j = 0; j < lanes; j += 16) {
      const std::size_t left = lanes - j;
      const __mmask16 mask = left >= 16
                                 ? __mmask16{0xFFFF}
                                 : static_cast<__mmask16>((1u << left) - 1);
      __m512 acc = _mm512_setzero_ps();
      for (std::size_t k = begin; k < end; ++k)
        acc = _mm512_add_ps(
            acc, _mm512_mul_ps(_mm512_set1_ps(vals[k]),
                               _mm512_maskz_loadu_ps(
                                   mask, xf + cols[k] * lanes + j)));
      _mm512_mask_storeu_ps(out + j, mask, acc);
    }
  }
}

// ---------------------------------------------------------------------------
// Chebyshev steps (elementwise; the scalar tails spell out the header's
// scalar branch).
// ---------------------------------------------------------------------------

QTDA_TARGET_AVX2 void chebyshev_first_step_avx2_pd(
    std::size_t n, const std::complex<double>* x, std::complex<double>* t,
    std::complex<double>* y, double center, double inv_h,
    std::complex<double> a0, std::complex<double> a1) {
  const double* xd = reinterpret_cast<const double*>(x);
  double* td = reinterpret_cast<double*>(t);
  double* yd = reinterpret_cast<double*>(y);
  const __m256d c = _mm256_set1_pd(center);
  const __m256d h = _mm256_set1_pd(inv_h);
  const __m256d av0 = broadcast_cd(&a0);
  const __m256d av1 = broadcast_cd(&a1);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d xv = _mm256_loadu_pd(xd + 2 * i);
    const __m256d t1 = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(td + 2 * i), _mm256_mul_pd(c, xv)), h);
    _mm256_storeu_pd(td + 2 * i, t1);
    _mm256_storeu_pd(yd + 2 * i,
                     _mm256_add_pd(cmul_pd(xv, av0), cmul_pd(t1, av1)));
  }
  for (; i < n; ++i) {
    y[i] = a0 * x[i];
    t[i] = (t[i] - center * x[i]) * inv_h;
    y[i] += a1 * t[i];
  }
}

QTDA_TARGET_AVX512 void chebyshev_first_step_avx512_pd(
    std::size_t n, const std::complex<double>* x, std::complex<double>* t,
    std::complex<double>* y, double center, double inv_h,
    std::complex<double> a0, std::complex<double> a1) {
  const double* xd = reinterpret_cast<const double*>(x);
  double* td = reinterpret_cast<double*>(t);
  double* yd = reinterpret_cast<double*>(y);
  const __m512d c = _mm512_set1_pd(center);
  const __m512d h = _mm512_set1_pd(inv_h);
  const __m512d av0 = broadcast512_cd(&a0);
  const __m512d av1 = broadcast512_cd(&a1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m512d xv = _mm512_loadu_pd(xd + 2 * i);
    const __m512d t1 = _mm512_mul_pd(
        _mm512_sub_pd(_mm512_loadu_pd(td + 2 * i), _mm512_mul_pd(c, xv)), h);
    _mm512_storeu_pd(td + 2 * i, t1);
    _mm512_storeu_pd(yd + 2 * i,
                     _mm512_add_pd(cmul512_pd(xv, av0), cmul512_pd(t1, av1)));
  }
  for (; i < n; ++i) {
    y[i] = a0 * x[i];
    t[i] = (t[i] - center * x[i]) * inv_h;
    y[i] += a1 * t[i];
  }
}

QTDA_TARGET_AVX2 void chebyshev_first_step_avx2_ps(
    std::size_t n, const std::complex<float>* x, std::complex<float>* t,
    std::complex<float>* y, float center, float inv_h, std::complex<float> a0,
    std::complex<float> a1) {
  const float* xf = reinterpret_cast<const float*>(x);
  float* tf = reinterpret_cast<float*>(t);
  float* yf = reinterpret_cast<float*>(y);
  const __m256 c = _mm256_set1_ps(center);
  const __m256 h = _mm256_set1_ps(inv_h);
  const __m256 av0 = broadcast_cf(&a0);
  const __m256 av1 = broadcast_cf(&a1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 xv = _mm256_loadu_ps(xf + 2 * i);
    const __m256 t1 = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_loadu_ps(tf + 2 * i), _mm256_mul_ps(c, xv)), h);
    _mm256_storeu_ps(tf + 2 * i, t1);
    _mm256_storeu_ps(yf + 2 * i,
                     _mm256_add_ps(cmul_ps(xv, av0), cmul_ps(t1, av1)));
  }
  for (; i < n; ++i) {
    y[i] = a0 * x[i];
    t[i] = (t[i] - center * x[i]) * inv_h;
    y[i] += a1 * t[i];
  }
}

QTDA_TARGET_AVX512 void chebyshev_first_step_avx512_ps(
    std::size_t n, const std::complex<float>* x, std::complex<float>* t,
    std::complex<float>* y, float center, float inv_h, std::complex<float> a0,
    std::complex<float> a1) {
  const float* xf = reinterpret_cast<const float*>(x);
  float* tf = reinterpret_cast<float*>(t);
  float* yf = reinterpret_cast<float*>(y);
  const __m512 c = _mm512_set1_ps(center);
  const __m512 h = _mm512_set1_ps(inv_h);
  const __m512 av0 = broadcast512_cf(&a0);
  const __m512 av1 = broadcast512_cf(&a1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512 xv = _mm512_loadu_ps(xf + 2 * i);
    const __m512 t1 = _mm512_mul_ps(
        _mm512_sub_ps(_mm512_loadu_ps(tf + 2 * i), _mm512_mul_ps(c, xv)), h);
    _mm512_storeu_ps(tf + 2 * i, t1);
    _mm512_storeu_ps(yf + 2 * i,
                     _mm512_add_ps(cmul512_ps(xv, av0), cmul512_ps(t1, av1)));
  }
  for (; i < n; ++i) {
    y[i] = a0 * x[i];
    t[i] = (t[i] - center * x[i]) * inv_h;
    y[i] += a1 * t[i];
  }
}

QTDA_TARGET_AVX2 void chebyshev_step_avx2_pd(
    std::size_t n, const std::complex<double>* s,
    const std::complex<double>* t_cur, std::complex<double>* t_prev,
    std::complex<double>* y, double center, double inv_h,
    std::complex<double> ak) {
  const double* sd = reinterpret_cast<const double*>(s);
  const double* cd = reinterpret_cast<const double*>(t_cur);
  double* pd = reinterpret_cast<double*>(t_prev);
  double* yd = reinterpret_cast<double*>(y);
  const __m256d c = _mm256_set1_pd(center);
  const __m256d h = _mm256_set1_pd(inv_h);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d av = broadcast_cd(&ak);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d diff = _mm256_sub_pd(
        _mm256_loadu_pd(sd + 2 * i),
        _mm256_mul_pd(c, _mm256_loadu_pd(cd + 2 * i)));
    const __m256d next =
        _mm256_sub_pd(_mm256_mul_pd(_mm256_mul_pd(two, diff), h),
                      _mm256_loadu_pd(pd + 2 * i));
    _mm256_storeu_pd(pd + 2 * i, next);
    _mm256_storeu_pd(yd + 2 * i, _mm256_add_pd(_mm256_loadu_pd(yd + 2 * i),
                                               cmul_pd(next, av)));
  }
  for (; i < n; ++i) {
    const std::complex<double> next =
        2.0 * (s[i] - center * t_cur[i]) * inv_h - t_prev[i];
    t_prev[i] = next;
    y[i] += ak * next;
  }
}

QTDA_TARGET_AVX512 void chebyshev_step_avx512_pd(
    std::size_t n, const std::complex<double>* s,
    const std::complex<double>* t_cur, std::complex<double>* t_prev,
    std::complex<double>* y, double center, double inv_h,
    std::complex<double> ak) {
  const double* sd = reinterpret_cast<const double*>(s);
  const double* cd = reinterpret_cast<const double*>(t_cur);
  double* pd = reinterpret_cast<double*>(t_prev);
  double* yd = reinterpret_cast<double*>(y);
  const __m512d c = _mm512_set1_pd(center);
  const __m512d h = _mm512_set1_pd(inv_h);
  const __m512d two = _mm512_set1_pd(2.0);
  const __m512d av = broadcast512_cd(&ak);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m512d diff = _mm512_sub_pd(
        _mm512_loadu_pd(sd + 2 * i),
        _mm512_mul_pd(c, _mm512_loadu_pd(cd + 2 * i)));
    const __m512d next =
        _mm512_sub_pd(_mm512_mul_pd(_mm512_mul_pd(two, diff), h),
                      _mm512_loadu_pd(pd + 2 * i));
    _mm512_storeu_pd(pd + 2 * i, next);
    _mm512_storeu_pd(yd + 2 * i, _mm512_add_pd(_mm512_loadu_pd(yd + 2 * i),
                                               cmul512_pd(next, av)));
  }
  for (; i < n; ++i) {
    const std::complex<double> next =
        2.0 * (s[i] - center * t_cur[i]) * inv_h - t_prev[i];
    t_prev[i] = next;
    y[i] += ak * next;
  }
}

QTDA_TARGET_AVX2 void chebyshev_step_avx2_ps(
    std::size_t n, const std::complex<float>* s,
    const std::complex<float>* t_cur, std::complex<float>* t_prev,
    std::complex<float>* y, float center, float inv_h,
    std::complex<float> ak) {
  const float* sf = reinterpret_cast<const float*>(s);
  const float* cf = reinterpret_cast<const float*>(t_cur);
  float* pf = reinterpret_cast<float*>(t_prev);
  float* yf = reinterpret_cast<float*>(y);
  const __m256 c = _mm256_set1_ps(center);
  const __m256 h = _mm256_set1_ps(inv_h);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 av = broadcast_cf(&ak);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 diff =
        _mm256_sub_ps(_mm256_loadu_ps(sf + 2 * i),
                      _mm256_mul_ps(c, _mm256_loadu_ps(cf + 2 * i)));
    const __m256 next =
        _mm256_sub_ps(_mm256_mul_ps(_mm256_mul_ps(two, diff), h),
                      _mm256_loadu_ps(pf + 2 * i));
    _mm256_storeu_ps(pf + 2 * i, next);
    _mm256_storeu_ps(yf + 2 * i, _mm256_add_ps(_mm256_loadu_ps(yf + 2 * i),
                                               cmul_ps(next, av)));
  }
  for (; i < n; ++i) {
    const std::complex<float> next =
        2.0f * (s[i] - center * t_cur[i]) * inv_h - t_prev[i];
    t_prev[i] = next;
    y[i] += ak * next;
  }
}

QTDA_TARGET_AVX512 void chebyshev_step_avx512_ps(
    std::size_t n, const std::complex<float>* s,
    const std::complex<float>* t_cur, std::complex<float>* t_prev,
    std::complex<float>* y, float center, float inv_h,
    std::complex<float> ak) {
  const float* sf = reinterpret_cast<const float*>(s);
  const float* cf = reinterpret_cast<const float*>(t_cur);
  float* pf = reinterpret_cast<float*>(t_prev);
  float* yf = reinterpret_cast<float*>(y);
  const __m512 c = _mm512_set1_ps(center);
  const __m512 h = _mm512_set1_ps(inv_h);
  const __m512 two = _mm512_set1_ps(2.0f);
  const __m512 av = broadcast512_cf(&ak);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512 diff =
        _mm512_sub_ps(_mm512_loadu_ps(sf + 2 * i),
                      _mm512_mul_ps(c, _mm512_loadu_ps(cf + 2 * i)));
    const __m512 next =
        _mm512_sub_ps(_mm512_mul_ps(_mm512_mul_ps(two, diff), h),
                      _mm512_loadu_ps(pf + 2 * i));
    _mm512_storeu_ps(pf + 2 * i, next);
    _mm512_storeu_ps(yf + 2 * i, _mm512_add_ps(_mm512_loadu_ps(yf + 2 * i),
                                               cmul512_ps(next, av)));
  }
  for (; i < n; ++i) {
    const std::complex<float> next =
        2.0f * (s[i] - center * t_cur[i]) * inv_h - t_prev[i];
    t_prev[i] = next;
    y[i] += ak * next;
  }
}

#endif  // QTDA_X86_SIMD

}  // namespace

// ---------------------------------------------------------------------------
// Level dispatchers.  On non-x86 builds active_simd_level() is always
// kScalar so these bodies are unreachable; they still fall back to the
// scalar wrappers to keep the symbols well-defined.
// ---------------------------------------------------------------------------

#if QTDA_X86_SIMD

void pair_sweep_vec(SimdLevel level, std::complex<double>* p0,
                    std::complex<double>* p1, std::uint64_t n,
                    const std::complex<double>* u) {
  if (level == SimdLevel::kAvx512) {
    pair_sweep_avx512_pd(p0, p1, n, u);
    return;
  }
  pair_sweep_avx2_pd(p0, p1, n, u);
}

void pair_sweep_vec(SimdLevel level, std::complex<float>* p0,
                    std::complex<float>* p1, std::uint64_t n,
                    const std::complex<float>* u) {
  (void)level;  // the float pair sweep ships one 256-bit path
  pair_sweep_avx2_ps(p0, p1, n, u);
}

void bit01_pair_sweep_vec(SimdLevel level, std::complex<double>* amp,
                          std::uint64_t dim, std::uint64_t mask,
                          std::uint64_t cmask, const std::complex<double>* u) {
  (void)level;  // only AVX-512 reaches here (see bit01_pair_sweep)
  bit01_pair_sweep_avx512_pd(amp, dim, mask, cmask, u);
}

void four_point_sweep_vec(SimdLevel level, std::complex<double>* p0,
                          std::complex<double>* p1, std::complex<double>* p2,
                          std::complex<double>* p3, std::uint64_t n,
                          const std::complex<double>* u) {
  (void)level;  // 256-bit path serves both vector levels
  four_point_sweep_avx2_pd(p0, p1, p2, p3, n, u);
}

void four_point_sweep_vec(SimdLevel level, std::complex<float>* p0,
                          std::complex<float>* p1, std::complex<float>* p2,
                          std::complex<float>* p3, std::uint64_t n,
                          const std::complex<float>* u) {
  (void)level;
  four_point_sweep_avx2_ps(p0, p1, p2, p3, n, u);
}

void diagonal_pass_vec(SimdLevel level, std::complex<double>* amp,
                       std::uint64_t first_index, std::uint64_t count,
                       const std::uint64_t* shifts, const std::uint64_t* masks,
                       std::size_t runs, const std::complex<double>* table) {
  if (level == SimdLevel::kAvx512) {
    diagonal_pass_avx512_pd(amp, first_index, count, shifts, masks, runs,
                            table);
    return;
  }
  diagonal_pass_avx2_pd(amp, first_index, count, shifts, masks, runs, table);
}

void diagonal_pass_vec(SimdLevel level, std::complex<float>* amp,
                       std::uint64_t first_index, std::uint64_t count,
                       const std::uint64_t* shifts, const std::uint64_t* masks,
                       std::size_t runs, const std::complex<float>* table) {
  (void)level;
  diagonal_pass_avx2_ps(amp, first_index, count, shifts, masks, runs, table);
}

void block_matvec_vec(SimdLevel level, const std::complex<double>* u,
                      const std::complex<double>* in, std::complex<double>* out,
                      std::size_t block) {
  (void)level;  // 256-bit path serves both vector levels
  block_matvec_avx2_pd(u, in, out, block);
}

void block_matvec_vec(SimdLevel level, const std::complex<float>* u,
                      const std::complex<float>* in, std::complex<float>* out,
                      std::size_t block) {
  (void)level;
  block_matvec_avx2_ps(u, in, out, block);
}

void csr_spmm_vec(SimdLevel level, const std::size_t* offsets,
                  const std::size_t* cols, const double* vals,
                  const std::complex<double>* x, std::complex<double>* y,
                  std::size_t width, std::size_t row_lo, std::size_t row_hi) {
  if (width == 1) {
    csr_spmv_interleaved<double, __m128d, spmv_term_pd, store_pd>(
        offsets, cols, vals, reinterpret_cast<const double*>(x),
        reinterpret_cast<double*>(y), row_lo, row_hi);
    return;
  }
  if (level == SimdLevel::kAvx512) {
    csr_spmm_avx512_pd(offsets, cols, vals, x, y, width, row_lo, row_hi);
    return;
  }
  csr_spmm_avx2_pd(offsets, cols, vals, x, y, width, row_lo, row_hi);
}

void csr_spmm_vec(SimdLevel level, const std::size_t* offsets,
                  const std::size_t* cols, const float* vals,
                  const std::complex<float>* x, std::complex<float>* y,
                  std::size_t width, std::size_t row_lo, std::size_t row_hi) {
  if (width == 1) {
    csr_spmv_interleaved<float, __m128, spmv_term_ps, store_ps>(
        offsets, cols, vals, reinterpret_cast<const float*>(x),
        reinterpret_cast<float*>(y), row_lo, row_hi);
    return;
  }
  if (level == SimdLevel::kAvx512) {
    csr_spmm_avx512_ps(offsets, cols, vals, x, y, width, row_lo, row_hi);
    return;
  }
  csr_spmm_avx2_ps(offsets, cols, vals, x, y, width, row_lo, row_hi);
}

void chebyshev_first_step_vec(SimdLevel level, std::size_t n,
                              const std::complex<double>* x,
                              std::complex<double>* t, std::complex<double>* y,
                              double center, double inv_h,
                              std::complex<double> a0,
                              std::complex<double> a1) {
  if (level == SimdLevel::kAvx512) {
    chebyshev_first_step_avx512_pd(n, x, t, y, center, inv_h, a0, a1);
    return;
  }
  chebyshev_first_step_avx2_pd(n, x, t, y, center, inv_h, a0, a1);
}

void chebyshev_first_step_vec(SimdLevel level, std::size_t n,
                              const std::complex<float>* x,
                              std::complex<float>* t, std::complex<float>* y,
                              float center, float inv_h,
                              std::complex<float> a0, std::complex<float> a1) {
  if (level == SimdLevel::kAvx512) {
    chebyshev_first_step_avx512_ps(n, x, t, y, center, inv_h, a0, a1);
    return;
  }
  chebyshev_first_step_avx2_ps(n, x, t, y, center, inv_h, a0, a1);
}

void chebyshev_step_vec(SimdLevel level, std::size_t n,
                        const std::complex<double>* s,
                        const std::complex<double>* t_cur,
                        std::complex<double>* t_prev, std::complex<double>* y,
                        double center, double inv_h, std::complex<double> ak) {
  if (level == SimdLevel::kAvx512) {
    chebyshev_step_avx512_pd(n, s, t_cur, t_prev, y, center, inv_h, ak);
    return;
  }
  chebyshev_step_avx2_pd(n, s, t_cur, t_prev, y, center, inv_h, ak);
}

void chebyshev_step_vec(SimdLevel level, std::size_t n,
                        const std::complex<float>* s,
                        const std::complex<float>* t_cur,
                        std::complex<float>* t_prev, std::complex<float>* y,
                        float center, float inv_h, std::complex<float> ak) {
  if (level == SimdLevel::kAvx512) {
    chebyshev_step_avx512_ps(n, s, t_cur, t_prev, y, center, inv_h, ak);
    return;
  }
  chebyshev_step_avx2_ps(n, s, t_cur, t_prev, y, center, inv_h, ak);
}

#else  // !QTDA_X86_SIMD — scalar stubs so the symbols always link

void pair_sweep_vec(SimdLevel, std::complex<double>* p0,
                    std::complex<double>* p1, std::uint64_t n,
                    const std::complex<double>* u) {
  pair_sweep(SimdLevel::kScalar, p0, p1, n, u);
}

void pair_sweep_vec(SimdLevel, std::complex<float>* p0, std::complex<float>* p1,
                    std::uint64_t n, const std::complex<float>* u) {
  pair_sweep(SimdLevel::kScalar, p0, p1, n, u);
}

void bit01_pair_sweep_vec(SimdLevel, std::complex<double>* amp,
                          std::uint64_t dim, std::uint64_t mask,
                          std::uint64_t cmask, const std::complex<double>* u) {
  bit01_pair_sweep(SimdLevel::kScalar, amp, dim, mask, cmask, u);
}

void four_point_sweep_vec(SimdLevel, std::complex<double>* p0,
                          std::complex<double>* p1, std::complex<double>* p2,
                          std::complex<double>* p3, std::uint64_t n,
                          const std::complex<double>* u) {
  four_point_sweep(SimdLevel::kScalar, p0, p1, p2, p3, n, u);
}

void four_point_sweep_vec(SimdLevel, std::complex<float>* p0,
                          std::complex<float>* p1, std::complex<float>* p2,
                          std::complex<float>* p3, std::uint64_t n,
                          const std::complex<float>* u) {
  four_point_sweep(SimdLevel::kScalar, p0, p1, p2, p3, n, u);
}

void diagonal_pass_vec(SimdLevel, std::complex<double>* amp,
                       std::uint64_t first_index, std::uint64_t count,
                       const std::uint64_t* shifts, const std::uint64_t* masks,
                       std::size_t runs, const std::complex<double>* table) {
  for (std::uint64_t k = 0; k < count; ++k)
    amp[k] *= table[extract_local(first_index + k, shifts, masks, runs)];
}

void diagonal_pass_vec(SimdLevel, std::complex<float>* amp,
                       std::uint64_t first_index, std::uint64_t count,
                       const std::uint64_t* shifts, const std::uint64_t* masks,
                       std::size_t runs, const std::complex<float>* table) {
  for (std::uint64_t k = 0; k < count; ++k)
    amp[k] *= table[extract_local(first_index + k, shifts, masks, runs)];
}

void block_matvec_vec(SimdLevel, const std::complex<double>* u,
                      const std::complex<double>* in, std::complex<double>* out,
                      std::size_t block) {
  block_matvec(SimdLevel::kScalar, u, in, out, block);
}

void block_matvec_vec(SimdLevel, const std::complex<float>* u,
                      const std::complex<float>* in, std::complex<float>* out,
                      std::size_t block) {
  block_matvec(SimdLevel::kScalar, u, in, out, block);
}

void csr_spmm_vec(SimdLevel, const std::size_t* offsets,
                  const std::size_t* cols, const double* vals,
                  const std::complex<double>* x, std::complex<double>* y,
                  std::size_t width, std::size_t row_lo, std::size_t row_hi) {
  csr_spmm_rows(SimdLevel::kScalar, offsets, cols, vals, x, y, width, row_lo,
                row_hi);
}

void csr_spmm_vec(SimdLevel, const std::size_t* offsets,
                  const std::size_t* cols, const float* vals,
                  const std::complex<float>* x, std::complex<float>* y,
                  std::size_t width, std::size_t row_lo, std::size_t row_hi) {
  csr_spmm_rows(SimdLevel::kScalar, offsets, cols, vals, x, y, width, row_lo,
                row_hi);
}

void chebyshev_first_step_vec(SimdLevel, std::size_t n,
                              const std::complex<double>* x,
                              std::complex<double>* t, std::complex<double>* y,
                              double center, double inv_h,
                              std::complex<double> a0,
                              std::complex<double> a1) {
  chebyshev_first_step(SimdLevel::kScalar, n, x, t, y, center, inv_h, a0, a1);
}

void chebyshev_first_step_vec(SimdLevel, std::size_t n,
                              const std::complex<float>* x,
                              std::complex<float>* t, std::complex<float>* y,
                              float center, float inv_h,
                              std::complex<float> a0, std::complex<float> a1) {
  chebyshev_first_step(SimdLevel::kScalar, n, x, t, y, center, inv_h, a0, a1);
}

void chebyshev_step_vec(SimdLevel, std::size_t n,
                        const std::complex<double>* s,
                        const std::complex<double>* t_cur,
                        std::complex<double>* t_prev, std::complex<double>* y,
                        double center, double inv_h, std::complex<double> ak) {
  chebyshev_step(SimdLevel::kScalar, n, s, t_cur, t_prev, y, center, inv_h,
                 ak);
}

void chebyshev_step_vec(SimdLevel, std::size_t n,
                        const std::complex<float>* s,
                        const std::complex<float>* t_cur,
                        std::complex<float>* t_prev, std::complex<float>* y,
                        float center, float inv_h, std::complex<float> ak) {
  chebyshev_step(SimdLevel::kScalar, n, s, t_cur, t_prev, y, center, inv_h,
                 ak);
}

#endif  // QTDA_X86_SIMD

}  // namespace detail
}  // namespace simd
}  // namespace qtda
