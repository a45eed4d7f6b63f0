// The blocked Chebyshev oracle: the two kernels it is built from
// (simd::csr_spmm_rows and the Chebyshev steps) equal their scalar branches
// byte for byte at every SIMD level this CPU runs, and SparseExpOperator's
// batches equal per-vector application — and the historical scalar
// single-vector recurrence — byte for byte, on both precision rails.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "kernel_test_util.hpp"
#include "linalg/expm_multiply.hpp"
#include "linalg/linear_operator.hpp"
#include "quantum/simd_kernels.hpp"

namespace qtda {
namespace {

using testing::levels_up_to_detected;
using testing::random_vector;
using testing::same_bytes;

/// CSR arrays whose rows hold 0, 1 or many (2–13) nonzeros, unsorted
/// columns with repeats — the kernels must not care.
template <typename R>
struct RandomCsr {
  std::vector<std::size_t> offsets{0};
  std::vector<std::size_t> cols;
  std::vector<R> vals;
};

template <typename R>
RandomCsr<R> random_csr(std::size_t rows, Rng& rng) {
  RandomCsr<R> csr;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t nnz =
        r % 3 == 0 ? 0 : r % 3 == 1 ? 1 : 2 + rng.uniform_index(12);
    for (std::size_t k = 0; k < nnz; ++k) {
      csr.cols.push_back(rng.uniform_index(rows));
      csr.vals.push_back(static_cast<R>(rng.uniform(-2.0, 2.0)));
    }
    csr.offsets.push_back(csr.cols.size());
  }
  return csr;
}

template <typename R>
class BlockedOracleKernels : public ::testing::Test {};
using Precisions = ::testing::Types<double, float>;
TYPED_TEST_SUITE(BlockedOracleKernels, Precisions);

TYPED_TEST(BlockedOracleKernels, SpmmEqualsScalarBranchAtEveryLevel) {
  using R = TypeParam;
  using C = std::complex<R>;
  Rng rng(71);
  const std::size_t rows = 29;
  const RandomCsr<R> csr = random_csr<R>(rows, rng);
  for (std::size_t width = 1; width <= 17; ++width) {
    const std::vector<C> x = random_vector<R>(rows * width, rng);
    std::vector<C> scalar(rows * width);
    simd::csr_spmm_rows(SimdLevel::kScalar, csr.offsets.data(),
                        csr.cols.data(), csr.vals.data(), x.data(),
                        scalar.data(), width, 0, rows);
    // Each column is exactly its own single-vector row dot.
    for (std::size_t j = 0; j < width; ++j) {
      std::vector<C> column(rows), alone(rows);
      for (std::size_t r = 0; r < rows; ++r) column[r] = x[r * width + j];
      simd::csr_spmm_rows(SimdLevel::kScalar, csr.offsets.data(),
                          csr.cols.data(), csr.vals.data(), column.data(),
                          alone.data(), 1, 0, rows);
      for (std::size_t r = 0; r < rows; ++r)
        ASSERT_EQ(std::memcmp(&alone[r], &scalar[r * width + j], sizeof(C)),
                  0)
            << "width " << width << " column " << j << " row " << r;
    }
    for (SimdLevel level : levels_up_to_detected()) {
      // Sentinel-filled output: the kernel must write every element of its
      // row range and nothing outside it.
      std::vector<C> vec(rows * width, C{R{7}, R{-7}});
      simd::csr_spmm_rows(level, csr.offsets.data(), csr.cols.data(),
                          csr.vals.data(), x.data(), vec.data(), width, 1,
                          rows - 1);
      std::vector<C> expected = scalar;
      for (std::size_t j = 0; j < width; ++j) {
        expected[j] = C{R{7}, R{-7}};
        expected[(rows - 1) * width + j] = C{R{7}, R{-7}};
      }
      EXPECT_TRUE(same_bytes(vec, expected))
          << simd_level_name(level) << " width " << width;
    }
  }
}

TYPED_TEST(BlockedOracleKernels, StepsEqualScalarBranchAtEveryLevel) {
  using R = TypeParam;
  using C = std::complex<R>;
  Rng rng(83);
  const R center = static_cast<R>(2.9);
  const R inv_h = static_cast<R>(1.0 / 2.9);
  const C a0{static_cast<R>(0.3), static_cast<R>(-0.45)};
  const C a1{static_cast<R>(-0.81), static_cast<R>(0.12)};
  for (std::size_t n = 1; n <= 37; ++n) {
    const std::vector<C> x = random_vector<R>(n, rng);
    const std::vector<C> t_in = random_vector<R>(n, rng);
    const std::vector<C> s = random_vector<R>(n, rng);
    const std::vector<C> prev_in = random_vector<R>(n, rng);
    const std::vector<C> y_in = random_vector<R>(n, rng);

    std::vector<C> t_ref = t_in, y_ref(n);
    simd::chebyshev_first_step(SimdLevel::kScalar, n, x.data(), t_ref.data(),
                               y_ref.data(), center, inv_h, a0, a1);
    std::vector<C> prev_ref = prev_in, y_step_ref = y_in;
    simd::chebyshev_step(SimdLevel::kScalar, n, s.data(), t_in.data(),
                         prev_ref.data(), y_step_ref.data(), center, inv_h,
                         a1);
    for (SimdLevel level : levels_up_to_detected()) {
      std::vector<C> t = t_in, y(n);
      simd::chebyshev_first_step(level, n, x.data(), t.data(), y.data(),
                                 center, inv_h, a0, a1);
      EXPECT_TRUE(same_bytes(t, t_ref))
          << simd_level_name(level) << " n " << n;
      EXPECT_TRUE(same_bytes(y, y_ref))
          << simd_level_name(level) << " n " << n;

      std::vector<C> prev = prev_in, y_step = y_in;
      simd::chebyshev_step(level, n, s.data(), t_in.data(), prev.data(),
                           y_step.data(), center, inv_h, a1);
      EXPECT_TRUE(same_bytes(prev, prev_ref))
          << simd_level_name(level) << " n " << n;
      EXPECT_TRUE(same_bytes(y_step, y_step_ref))
          << simd_level_name(level) << " n " << n;
    }
  }
}

/// Path-graph Laplacian (rows 0 and d−1 hold two nonzeros, the rest three)
/// plus a few long-range couplings, so rows differ in length.
SparseMatrix oracle_matrix(std::size_t d) {
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < d; ++i) {
    triplets.push_back({i, i, 2.0});
    if (i + 1 < d) {
      triplets.push_back({i, i + 1, -1.0});
      triplets.push_back({i + 1, i, -1.0});
    }
  }
  for (std::size_t i = 0; i + 7 < d; i += 5) {
    triplets.push_back({i, i + 7, -0.25});
    triplets.push_back({i + 7, i, -0.25});
  }
  return SparseMatrix::from_triplets(d, d, std::move(triplets));
}

constexpr double kLambdaMin = 0.0;
constexpr double kLambdaMax = 5.0;

/// The scalar single-vector recurrence the oracle ran before blocking, term
/// for term (row-dot matvec, then the elementwise update).
template <typename R>
void reference_recurrence(const SparseMatrix& a, const std::vector<R>& vals,
                          const std::vector<std::complex<R>>& coefficients,
                          R center, R inv_h, const std::complex<R>* x,
                          std::complex<R>* y) {
  using C = std::complex<R>;
  const std::size_t n = a.rows();
  const auto matvec = [&](const C* in, C* out) {
    for (std::size_t r = 0; r < n; ++r) {
      C acc{};
      for (std::size_t k = a.row_offsets()[r]; k < a.row_offsets()[r + 1];
           ++k)
        acc += vals[k] * in[a.col_indices()[k]];
      out[r] = acc;
    }
  };
  for (std::size_t i = 0; i < n; ++i) y[i] = coefficients[0] * x[i];
  if (coefficients.size() == 1) return;
  std::vector<C> t_prev(x, x + n), t_cur(n), scratch(n);
  matvec(x, t_cur.data());
  for (std::size_t i = 0; i < n; ++i)
    t_cur[i] = (t_cur[i] - center * x[i]) * inv_h;
  for (std::size_t i = 0; i < n; ++i) y[i] += coefficients[1] * t_cur[i];
  for (std::size_t k = 2; k < coefficients.size(); ++k) {
    matvec(t_cur.data(), scratch.data());
    for (std::size_t i = 0; i < n; ++i) {
      const C next =
          R{2} * (scratch[i] - center * t_cur[i]) * inv_h - t_prev[i];
      t_prev[i] = next;
      y[i] += coefficients[k] * next;
    }
    t_prev.swap(t_cur);
  }
}

const std::vector<std::size_t>& batch_counts() {
  static const std::vector<std::size_t> counts = {1, 2, 3, 7, 8, 9, 37, 384};
  return counts;
}

TEST(BlockedOracle, DoubleBatchEqualsPerVectorAndScalarRecurrence) {
  const std::size_t d = 32;
  const SparseMatrix a = oracle_matrix(d);
  const SparseExpOperator op(a, 6.5, kLambdaMin, kLambdaMax);
  ASSERT_GT(op.num_terms(), 2u);
  const double center = 0.5 * (kLambdaMax + kLambdaMin);
  const double inv_h = 1.0 / (0.5 * (kLambdaMax - kLambdaMin));
  Rng rng(97);
  for (std::size_t count : batch_counts()) {
    const std::vector<std::complex<double>> x =
        random_vector<double>(count * d, rng);
    std::vector<std::complex<double>> batch(count * d), single(count * d),
        reference(count * d);
    op.apply_batch(x.data(), batch.data(), count);
    for (std::size_t b = 0; b < count; ++b) {
      op.apply(x.data() + b * d, single.data() + b * d);
      reference_recurrence(a, a.values(), *op.coefficients(), center, inv_h,
                           x.data() + b * d, reference.data() + b * d);
    }
    EXPECT_TRUE(same_bytes(batch, single)) << "count " << count;
    EXPECT_TRUE(same_bytes(batch, reference)) << "count " << count;
  }
}

TEST(BlockedOracle, FloatBatchEqualsPerVectorAndScalarRecurrence) {
  const std::size_t d = 32;
  const SparseMatrix a = oracle_matrix(d);
  const SparseExpOperator op(a, 6.5, kLambdaMin, kLambdaMax);
  std::vector<float> vals;
  for (double v : a.values()) vals.push_back(static_cast<float>(v));
  std::vector<std::complex<float>> coefficients;
  for (const std::complex<double>& c : *op.coefficients())
    coefficients.emplace_back(static_cast<float>(c.real()),
                              static_cast<float>(c.imag()));
  const float center = static_cast<float>(0.5 * (kLambdaMax + kLambdaMin));
  const float inv_h =
      1.0f / static_cast<float>(0.5 * (kLambdaMax - kLambdaMin));
  Rng rng(101);
  for (std::size_t count : batch_counts()) {
    const std::vector<std::complex<float>> x =
        random_vector<float>(count * d, rng);
    std::vector<std::complex<float>> batch(count * d), single(count * d),
        reference(count * d);
    op.apply_batch_f32(x.data(), batch.data(), count);
    for (std::size_t b = 0; b < count; ++b) {
      op.apply_batch_f32(x.data() + b * d, single.data() + b * d, 1);
      reference_recurrence(a, vals, coefficients, center, inv_h,
                           x.data() + b * d, reference.data() + b * d);
    }
    EXPECT_TRUE(same_bytes(batch, single)) << "count " << count;
    EXPECT_TRUE(same_bytes(batch, reference)) << "count " << count;
  }
}

TEST(BlockedOracle, BatchInsideAPoolTaskEqualsBatchOnTheCaller) {
  // Inside a pool task the batch runs serially in full-width blocks; on
  // the caller it narrows its blocks to fill the pool.  Same bytes.
  const std::size_t d = 32;
  const SparseExpOperator op(oracle_matrix(d), 6.5, kLambdaMin, kLambdaMax);
  Rng rng(109);
  for (std::size_t count : {4u, 37u}) {
    const std::vector<std::complex<double>> x =
        random_vector<double>(count * d, rng);
    std::vector<std::complex<double>> caller(count * d), nested(count * d);
    op.apply_batch(x.data(), caller.data(), count);
    ThreadPool::shared().submit(
        [&] { op.apply_batch(x.data(), nested.data(), count); });
    ThreadPool::shared().wait_idle();
    EXPECT_TRUE(same_bytes(caller, nested)) << "count " << count;
  }
  op.apply_batch(nullptr, nullptr, 0);  // an empty batch touches nothing
}

TEST(BlockedOracle, SingleTermExpansionScalesByTheLoneCoefficient) {
  // θ·h = 0 keeps only a_0 = e^{iθc}: no CSR pass, no division by h = 0.
  const SparseMatrix a = oracle_matrix(8);
  const SparseExpOperator op(a, 1.5, 2.0, 2.0);
  ASSERT_EQ(op.num_terms(), 1u);
  Rng rng(103);
  const std::vector<std::complex<double>> x = random_vector<double>(3 * 8, rng);
  std::vector<std::complex<double>> y(x.size()), expected(x.size());
  op.apply_batch(x.data(), y.data(), 3);
  for (std::size_t i = 0; i < x.size(); ++i)
    expected[i] = (*op.coefficients())[0] * x[i];
  EXPECT_TRUE(same_bytes(y, expected));
}

TEST(BlockedOracle, ConjugatedBatchEqualsPerVectorApply) {
  const std::size_t d = 16;
  const SparseExpOperator op(oracle_matrix(d), 3.0, kLambdaMin, kLambdaMax);
  const ConjugatedOperator conjugated(op);
  Rng rng(107);
  for (std::size_t count : {3u, 8u, 11u}) {
    const std::vector<std::complex<double>> x =
        random_vector<double>(count * d, rng);
    std::vector<std::complex<double>> batch(count * d), single(count * d);
    conjugated.apply_batch(x.data(), batch.data(), count);
    for (std::size_t b = 0; b < count; ++b)
      conjugated.apply(x.data() + b * d, single.data() + b * d);
    EXPECT_TRUE(same_bytes(batch, single)) << "count " << count;
  }
}

}  // namespace
}  // namespace qtda
