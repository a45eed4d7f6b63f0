#include "linalg/expm_multiply.hpp"

#include <algorithm>
#include <cmath>
#include <list>
#include <map>
#include <tuple>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/thread_annotations.hpp"
#include "quantum/simd_kernels.hpp"

namespace qtda {

namespace {

/// Expansion order covering |J_k(z)|: the Bessel tail turns superexponential
/// past k ≈ z, with a transition region of width O(z^{1/3}).
std::size_t chebyshev_order(double z) {
  const double az = std::abs(z);
  return static_cast<std::size_t>(std::ceil(az)) +
         static_cast<std::size_t>(12.0 * std::cbrt(az + 1.0)) + 25;
}

/// Computes the truncated Jacobi–Anger coefficient vector
/// a_k = (2 − δ_{k0}) i^k J_k(z) e^{iφ} for z = θh, φ = θc.
std::vector<std::complex<double>> exp_coefficients(double z, double phi,
                                                   double tolerance) {
  const double az = std::abs(z);
  const std::vector<double> bessel =
      bessel_j_sequence(chebyshev_order(az), az);
  // Truncate the tail only — below k ≈ z the coefficients oscillate through
  // small values without having decayed.
  std::size_t last = 0;
  for (std::size_t k = 0; k < bessel.size(); ++k)
    if (std::abs(bessel[k]) > tolerance) last = k;

  const std::complex<double> phase{std::cos(phi), std::sin(phi)};
  std::vector<std::complex<double>> coefficients(last + 1);
  // i^k cycles (1, i, −1, −i); J_k(−z) = (−1)^k J_k(z) folds the sign of z in.
  std::complex<double> ik{1.0, 0.0};
  const std::complex<double> i_unit =
      z >= 0.0 ? std::complex<double>{0.0, 1.0}
               : std::complex<double>{0.0, -1.0};
  for (std::size_t k = 0; k <= last; ++k) {
    const double weight = (k == 0 ? 1.0 : 2.0) * bessel[k];
    coefficients[k] = weight * ik * phase;
    ik *= i_unit;
  }
  return coefficients;
}

/// Process-wide memo of coefficient vectors.  The coefficients are a pure
/// function of (z, φ, tolerance), so the 2^j ladder of one QPE circuit and
/// every rebuild of that ladder (each estimate, trajectory study, and bench
/// iteration constructs the operators afresh) share one Bessel derivation.
/// LRU-bounded: a long-running server touches a new (z, φ) pair for every
/// distinct (Laplacian, δ) it compiles, so the memo evicts the coldest entry
/// instead of dumping the hot ladders wholesale — the working set of any one
/// experiment (a handful of ladders) always stays resident.
class ExpmCoefficientCache {
 public:
  using Key = std::tuple<double, double, double>;
  using Value = std::shared_ptr<const std::vector<std::complex<double>>>;

  static ExpmCoefficientCache& instance() {
    static ExpmCoefficientCache* cache =
        new ExpmCoefficientCache();  // intentionally leaked
    return *cache;
  }

  Value get(double z, double phi, double tolerance) {
    const Key key{z, phi, tolerance};
    {
      MutexLock lock(mutex_);
      const auto it = index_.find(key);
      if (it != index_.end()) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to front
        return it->second->second;
      }
      ++stats_.misses;
    }
    // Compute outside the lock (a miss costs a full Bessel recurrence); a
    // racing thread may duplicate the work, but whichever insert lands first
    // wins and both callers get a valid vector.
    auto computed = std::make_shared<const std::vector<std::complex<double>>>(
        exp_coefficients(z, phi, tolerance));
    MutexLock lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
    lru_.emplace_front(key, std::move(computed));
    index_[key] = lru_.begin();
    while (lru_.size() > kMaxEntries) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
    }
    return lru_.front().second;
  }

  ExpmCoefficientCacheStats stats() const {
    MutexLock lock(mutex_);
    ExpmCoefficientCacheStats out = stats_;
    out.entries = lru_.size();
    return out;
  }

  void clear() {
    MutexLock lock(mutex_);
    lru_.clear();
    index_.clear();
    stats_ = ExpmCoefficientCacheStats{};
  }

 private:
  static constexpr std::size_t kMaxEntries = 512;

  mutable Mutex mutex_;
  /// front = most recently used
  std::list<std::pair<Key, Value>> lru_ QTDA_GUARDED_BY(mutex_);
  std::map<Key, std::list<std::pair<Key, Value>>::iterator> index_
      QTDA_GUARDED_BY(mutex_);
  ExpmCoefficientCacheStats stats_ QTDA_GUARDED_BY(mutex_);
};

std::shared_ptr<const std::vector<std::complex<double>>>
shared_exp_coefficients(double z, double phi, double tolerance) {
  return ExpmCoefficientCache::instance().get(z, phi, tolerance);
}

}  // namespace

ExpmCoefficientCacheStats expm_coefficient_cache_stats() {
  return ExpmCoefficientCache::instance().stats();
}

void expm_coefficient_cache_clear() {
  ExpmCoefficientCache::instance().clear();
}

std::vector<double> bessel_j_sequence(std::size_t n, double z) {
  QTDA_REQUIRE(z >= 0.0, "bessel_j_sequence needs z >= 0");
  std::vector<double> j(n + 1, 0.0);
  if (z == 0.0) {
    j[0] = 1.0;  // J_k(0) = δ_{k0}
    return j;
  }
  // Miller's algorithm: run the (unstable-upward, stable-downward) recurrence
  // J_{k−1} = (2k/z)·J_k − J_{k+1} from a start index safely past both n and
  // the turning point k ≈ z, then normalize with J_0 + 2·Σ J_{2i} = 1.
  const std::size_t start =
      std::max(n, static_cast<std::size_t>(std::ceil(z))) +
      static_cast<std::size_t>(12.0 * std::cbrt(z + 1.0)) + 30;
  double g_above = 0.0;   // g_{k+1}
  double g_k = 1e-30;     // g_start (arbitrary seed)
  double even_sum = 0.0;  // Σ g_{2i}, i ≥ 1
  if (start % 2 == 0) even_sum += g_k;
  if (start <= n) j[start] = g_k;
  for (std::size_t k = start; k >= 1; --k) {
    const double g_below = (2.0 * static_cast<double>(k) / z) * g_k - g_above;
    g_above = g_k;
    g_k = g_below;
    if (std::abs(g_k) > 1e250) {  // rescale before overflow
      constexpr double kScale = 1e-250;
      g_k *= kScale;
      g_above *= kScale;
      even_sum *= kScale;
      for (double& v : j) v *= kScale;
    }
    const std::size_t idx = k - 1;
    if (idx <= n) j[idx] = g_k;
    if (idx >= 1 && idx % 2 == 0) even_sum += g_k;
  }
  const double norm = g_k + 2.0 * even_sum;  // g_k now holds g_0
  QTDA_REQUIRE(norm != 0.0, "Bessel normalization degenerated");
  for (double& v : j) v /= norm;
  return j;
}

SparseExpOperator::SparseExpOperator(SparseMatrix a, double theta,
                                     double lambda_min, double lambda_max,
                                     const ExpmOptions& options)
    : SparseExpOperator(std::make_shared<const SparseMatrix>(std::move(a)),
                        theta, lambda_min, lambda_max, options) {}

SparseExpOperator::SparseExpOperator(std::shared_ptr<const SparseMatrix> a,
                                     double theta, double lambda_min,
                                     double lambda_max,
                                     const ExpmOptions& options)
    : a_(std::move(a)), theta_(theta) {
  QTDA_REQUIRE(a_ != nullptr, "exponential action needs a matrix");
  QTDA_REQUIRE(a_->rows() == a_->cols() && a_->rows() > 0,
               "exponential action needs a non-empty square matrix");
  QTDA_REQUIRE(lambda_max >= lambda_min, "spectral bounds out of order");
  center_ = 0.5 * (lambda_max + lambda_min);
  half_width_ = 0.5 * (lambda_max - lambda_min);
  coefficients_ = shared_exp_coefficients(theta_ * half_width_,
                                          theta_ * center_, options.tolerance);
}

void SparseExpOperator::ensure_f32() const {
  std::call_once(f32_once_, [this] {
    const std::vector<double>& vals = a_->values();
    values_f32_.resize(vals.size());
    for (std::size_t i = 0; i < vals.size(); ++i)
      values_f32_[i] = static_cast<float>(vals[i]);
    coefficients_f32_.reserve(coefficients_->size());
    for (const std::complex<double>& c : *coefficients_)
      coefficients_f32_.emplace_back(static_cast<float>(c.real()),
                                     static_cast<float>(c.imag()));
  });
}

namespace {

/// Most right-hand sides per blocked recurrence.  Each CSR entry is loaded
/// once per block and applied to all of them: eight complex doubles fill
/// two AVX-512 (four AVX2) registers per row.
constexpr std::size_t kBlockWidth = 8;

/// Block width for \p count > 0 right-hand sides over \p workers: at most
/// kBlockWidth, and no wider than gives every worker the same number of
/// blocks, so a batch of a few vectors still spreads over the pool (4
/// vectors on 4 workers run as four blocks of one, 37 as eight blocks of at
/// most five) while the long batches keep full blocks.
std::size_t block_width(std::size_t count, std::size_t workers) {
  const std::size_t per_round = kBlockWidth * workers;
  const std::size_t rounds = (count + per_round - 1) / per_round;
  return (count + rounds * workers - 1) / (rounds * workers);
}

/// Stored nonzeros from which a lone block splits its CSR products across
/// the pool.  Every term then costs a pool section, which pays only once a
/// pass is long: on a 4-vCPU AVX-512 host a lone vector ran 1.15–2.2×
/// slower split than serially at 12k–74k nonzeros and 1.2–1.5× faster at
/// 98k–295k, and the split never won below 2^16.
constexpr std::size_t kRowParallelMinNonzeros = std::size_t{1} << 16;

/// The recurrence's inputs at one precision: B = (A − c·I)/h in CSR form
/// and the truncated coefficients a_k.
template <typename R>
struct ChebyshevRecurrence {
  const std::size_t* offsets;
  const std::size_t* cols;
  const R* vals;
  std::size_t rows;
  const std::complex<R>* coefficients;
  std::size_t terms;
  R center;
  R inv_h;  ///< 1/h (0 when only a_0 survives: then h may be 0)
};

/// The recurrence over \p vals (A's values at precision R, in CSR order).
/// c and 1/h are formed at precision R from the double c and h.
template <typename R>
ChebyshevRecurrence<R> make_recurrence(
    const SparseMatrix& a, const R* vals,
    const std::vector<std::complex<R>>& coefficients, double center,
    double half_width) {
  return {a.row_offsets().data(),
          a.col_indices().data(),
          vals,
          a.rows(),
          coefficients.data(),
          coefficients.size(),
          static_cast<R>(center),
          coefficients.size() > 1 ? R{1} / static_cast<R>(half_width) : R{0}};
}

/// y = Σ_k a_k·T_k(B)·x for one interleaved [rows × width] block.  x is
/// consumed: it becomes the T_{k−2} buffer of the three-term recurrence.
/// Every element gets the arithmetic of the scalar single-vector loop at
/// every SIMD level (simd_kernels.hpp).
template <typename R>
void chebyshev_block(const ChebyshevRecurrence<R>& rec, std::size_t width,
                     std::complex<R>* x, std::complex<R>* t,
                     std::complex<R>* s, std::complex<R>* y,
                     bool parallel_rows) {
  const std::size_t n = rec.rows * width;
  if (rec.terms == 1) {
    for (std::size_t i = 0; i < n; ++i) y[i] = rec.coefficients[0] * x[i];
    return;
  }
  const SimdLevel level = active_simd_level();
  const auto spmm = [&](const std::complex<R>* in, std::complex<R>* out) {
    const auto rows_body = [&](std::size_t lo, std::size_t hi) {
      simd::csr_spmm_rows(level, rec.offsets, rec.cols, rec.vals, in, out,
                          width, lo, hi);
    };
    if (parallel_rows) {
      parallel_for_chunked(0, rec.rows, rows_body, /*min_parallel_size=*/2);
    } else {
      rows_body(0, rec.rows);
    }
  };
  // T_0·x = x, T_1·x = B·x.
  spmm(x, t);
  simd::chebyshev_first_step(level, n, x, t, y, rec.center, rec.inv_h,
                             rec.coefficients[0], rec.coefficients[1]);
  std::complex<R>* t_prev = x;
  std::complex<R>* t_cur = t;
  for (std::size_t k = 2; k < rec.terms; ++k) {
    // T_k = 2B·T_{k−1} − T_{k−2}, overwriting the oldest buffer.
    spmm(t_cur, s);
    simd::chebyshev_step(level, n, s, t_cur, t_prev, y, rec.center,
                         rec.inv_h, rec.coefficients[k]);
    std::swap(t_prev, t_cur);
  }
}

/// Applies the recurrence to \p count consecutive length-rows vectors:
/// blocks of block_width() vectors are transposed into [rows × width], run,
/// and transposed back.  Pieces of blocks go on the shared pool, each with
/// one workspace; a lone block of a long matrix splits its CSR products
/// across rows instead.
template <typename R>
void apply_blocked(const ChebyshevRecurrence<R>& rec,
                   const std::complex<R>* x, std::complex<R>* y,
                   std::size_t count) {
  if (count == 0) return;
  const std::size_t d = rec.rows;
  const std::size_t max_width = block_width(count, available_workers());
  const std::size_t blocks = (count + max_width - 1) / max_width;
  const bool parallel_rows =
      blocks == 1 && rec.offsets[rec.rows] >= kRowParallelMinNonzeros;
  const auto run_blocks = [&](std::size_t lo, std::size_t hi) {
    std::vector<std::complex<R>> work(4 * d * max_width);
    std::complex<R>* xb = work.data();
    std::complex<R>* tb = xb + d * max_width;
    std::complex<R>* sb = tb + d * max_width;
    std::complex<R>* yb = sb + d * max_width;
    for (std::size_t b = lo; b < hi; ++b) {
      const std::size_t first = b * max_width;
      const std::size_t width = std::min(max_width, count - first);
      for (std::size_t j = 0; j < width; ++j) {
        const std::complex<R>* in = x + (first + j) * d;
        for (std::size_t r = 0; r < d; ++r) xb[r * width + j] = in[r];
      }
      chebyshev_block(rec, width, xb, tb, sb, yb, parallel_rows);
      for (std::size_t j = 0; j < width; ++j) {
        std::complex<R>* out = y + (first + j) * d;
        for (std::size_t r = 0; r < d; ++r) out[r] = yb[r * width + j];
      }
    }
  };
  if (parallel_rows) {
    run_blocks(0, blocks);
  } else {
    parallel_for_chunked(0, blocks, run_blocks, /*min_parallel_size=*/2);
  }
}

}  // namespace

void SparseExpOperator::apply(const std::complex<double>* x,
                              std::complex<double>* y) const {
  apply_batch(x, y, 1);
}

void SparseExpOperator::apply_batch(const std::complex<double>* x,
                                    std::complex<double>* y,
                                    std::size_t count) const {
  apply_blocked(make_recurrence(*a_, a_->values().data(), *coefficients_,
                                center_, half_width_),
                x, y, count);
}

void SparseExpOperator::apply_batch_f32(const std::complex<float>* x,
                                        std::complex<float>* y,
                                        std::size_t count) const {
  // The double recurrence term for term in float: float CSR values, float
  // coefficients, float workspace — every CSR pass moves half the bytes.
  // B = (A − c·I)/h is formed with c, 1/h narrowed once up front.
  ensure_f32();
  apply_blocked(make_recurrence(*a_, values_f32_.data(), coefficients_f32_,
                                center_, half_width_),
                x, y, count);
}

ComplexVector expm_multiply(const SparseMatrix& a, double theta,
                            const ComplexVector& x, double lambda_min,
                            double lambda_max, const ExpmOptions& options) {
  QTDA_REQUIRE(x.size() == a.cols(), "expm_multiply shape mismatch");
  const SparseExpOperator op(a, theta, lambda_min, lambda_max, options);
  ComplexVector y(x.size());
  op.apply(x.data(), y.data());
  return y;
}

}  // namespace qtda
