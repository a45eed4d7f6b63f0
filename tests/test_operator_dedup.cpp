// The operator kernel applies its operator once per distinct gathered block
// and copies that result to every block with the same bytes.  That is exact
// only because apply_batch gives a block the same bytes whatever the batch
// holds: these tests pin that contract for the operators the engines run,
// compare the deduplicating kernel with a block-by-block reference byte for
// byte on both precisions and both engines, and count the skipped blocks of
// a purified QPE estimate.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/telemetry.hpp"
#include "core/betti_estimator.hpp"
#include "kernel_test_util.hpp"
#include "linalg/expm_multiply.hpp"
#include "linalg/linear_operator.hpp"
#include "linalg/sparse_matrix.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/statevector.hpp"
#include "quantum/types.hpp"

namespace qtda {
namespace {

using testing::random_vector;
using testing::same_bytes;

/// Clears the registry and turns collection off again on exit.
struct TelemetryOn {
  TelemetryOn() {
    telemetry::registry().reset_values();
    telemetry::set_enabled(true);
  }
  ~TelemetryOn() {
    telemetry::set_enabled(false);
    telemetry::registry().reset_values();
  }
  TelemetryOn(const TelemetryOn&) = delete;
  TelemetryOn& operator=(const TelemetryOn&) = delete;
};

std::uint64_t counter(const char* name) {
  return telemetry::registry().counter(name).value();
}

/// Symmetric path-graph Laplacian of dimension d with a few long-range
/// couplings, spectrum inside [0, 5].
SparseMatrix path_matrix(std::size_t d) {
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < d; ++i) {
    triplets.push_back({i, i, 2.0});
    if (i + 1 < d) {
      triplets.push_back({i, i + 1, -1.0});
      triplets.push_back({i + 1, i, -1.0});
    }
  }
  for (std::size_t i = 0; i + 3 < d; i += 3) {
    triplets.push_back({i, i + 3, -0.25});
    triplets.push_back({i + 3, i, -0.25});
  }
  return SparseMatrix::from_triplets(d, d, std::move(triplets));
}

/// y = x rotated by one place: a permutation, so every byte of the input —
/// the sign of each zero included — reaches the output.  Merging blocks
/// that differ only in a zero's sign would show in its result.
class RotateOperator final : public LinearOperator {
 public:
  explicit RotateOperator(std::size_t d) : d_(d) {}
  std::size_t dimension() const override { return d_; }
  std::string name() const override { return "rotate"; }
  void apply(const std::complex<double>* x,
             std::complex<double>* y) const override {
    for (std::size_t i = 0; i < d_; ++i) y[i] = x[(i + 1) % d_];
  }

 private:
  std::size_t d_;
};

/// One batch on the engine's rail.
void apply_on_rail(const LinearOperator& op, const std::complex<double>* x,
                   std::complex<double>* y, std::size_t count) {
  op.apply_batch(x, y, count);
}
void apply_on_rail(const LinearOperator& op, const std::complex<float>* x,
                   std::complex<float>* y, std::size_t count) {
  op.apply_batch_f32(x, y, count);
}

// ---------------------------------------------------------------------------
// The apply_batch contract.

/// Every block of a batch — with repeated blocks and zeros of both signs —
/// gets the bytes it gets alone, and the same bytes with the batch
/// reversed.
template <typename R>
void expect_position_independent(const LinearOperator& op,
                                 const std::string& label, Rng& rng) {
  using C = std::complex<R>;
  const std::size_t d = op.dimension();
  for (std::size_t count : {1u, 2u, 3u, 7u, 8u, 9u, 37u}) {
    std::vector<C> x = random_vector<R>(count * d, rng);
    for (std::size_t b = 2; b < count; b += 3)  // some repeated blocks
      std::copy(x.begin(), x.begin() + d, x.begin() + b * d);
    std::vector<C> batch(count * d), reversed_in(count * d),
        reversed_out(count * d), alone(d);
    apply_on_rail(op, x.data(), batch.data(), count);
    for (std::size_t b = 0; b < count; ++b)
      std::copy(x.begin() + b * d, x.begin() + (b + 1) * d,
                reversed_in.begin() + (count - 1 - b) * d);
    apply_on_rail(op, reversed_in.data(), reversed_out.data(), count);
    for (std::size_t b = 0; b < count; ++b) {
      apply_on_rail(op, x.data() + b * d, alone.data(), 1);
      const C* in_batch = batch.data() + b * d;
      const C* in_reversed = reversed_out.data() + (count - 1 - b) * d;
      EXPECT_EQ(std::memcmp(in_batch, alone.data(), d * sizeof(C)), 0)
          << label << " count " << count << " block " << b;
      EXPECT_EQ(std::memcmp(in_reversed, alone.data(), d * sizeof(C)), 0)
          << label << " reversed, count " << count << " block " << b;
    }
  }
}

TEST(ApplyBatchContract, BlockBytesIgnoreBatchWidthAndPosition) {
  Rng rng(211);
  ComplexMatrix dense(8, 8);
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c)
      dense(r, c) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const DenseOperator dense_op(dense);
  const SparseExpOperator sparse_op(path_matrix(32), 6.5, 0.0, 5.0);
  const ConjugatedOperator conjugated(sparse_op);
  const LinearOperator* ops[] = {&dense_op, &sparse_op, &conjugated};
  for (const LinearOperator* op : ops) {
    expect_position_independent<double>(*op, op->name() + " f64", rng);
    expect_position_independent<float>(*op, op->name() + " f32", rng);
  }
}

// ---------------------------------------------------------------------------
// The deduplicating kernel against a block-by-block reference.

/// Which blocks of the prepared state repeat.
enum class Repeats { kNone, kSome, kAll, kSignedZeros };

/// Block bases of an operator over \p targets conditioned on \p controls
/// (MSB-first wires): indices with every control bit set and every target
/// bit clear, ascending, plus the offset of each local index.
struct Blocks {
  std::vector<std::uint64_t> bases;
  std::vector<std::uint64_t> offsets;
};

Blocks enumerate_blocks(std::size_t n, const std::vector<std::size_t>& targets,
                        const std::vector<std::size_t>& controls) {
  std::uint64_t tmask = 0, cmask = 0;
  for (std::size_t t : targets) tmask |= qubit_mask(t, n);
  for (std::size_t c : controls) cmask |= qubit_mask(c, n);
  Blocks blocks;
  for (std::uint64_t i = 0; i < (std::uint64_t{1} << n); ++i)
    if ((i & tmask) == 0 && (i & cmask) == cmask) blocks.bases.push_back(i);
  const std::size_t m = targets.size();
  for (std::uint64_t l = 0; l < (std::uint64_t{1} << m); ++l) {
    std::uint64_t offset = 0;
    for (std::size_t k = 0; k < m; ++k)
      if (l & (std::uint64_t{1} << (m - 1 - k)))
        offset |= qubit_mask(targets[k], n);
    blocks.offsets.push_back(offset);
  }
  return blocks;
}

/// A random n-qubit vector whose operator blocks repeat as \p repeats says.
/// Returns the number of distinct blocks through \p distinct.
template <typename R>
std::vector<std::complex<R>> patterned_state(
    std::size_t n, const Blocks& blocks, Repeats repeats, Rng& rng,
    std::size_t& distinct) {
  using C = std::complex<R>;
  std::vector<C> amp = random_vector<R>(std::size_t{1} << n, rng);
  const std::size_t d = blocks.offsets.size();
  const std::size_t count = blocks.bases.size();
  const auto block_at = [&](std::size_t b, std::size_t l) -> C& {
    return amp[blocks.bases[b] | blocks.offsets[l]];
  };
  switch (repeats) {
    case Repeats::kNone:
      distinct = count;
      break;
    case Repeats::kSome:  // three distinct blocks, repeated cyclically
      for (std::size_t b = 3; b < count; ++b)
        for (std::size_t l = 0; l < d; ++l) block_at(b, l) = block_at(b % 3, l);
      distinct = std::min<std::size_t>(count, 3);
      break;
    case Repeats::kAll:
      for (std::size_t b = 1; b < count; ++b)
        for (std::size_t l = 0; l < d; ++l) block_at(b, l) = block_at(0, l);
      distinct = 1;
      break;
    case Repeats::kSignedZeros:  // block 0, and copies with one −0 part
      block_at(0, 0) = C{R{0}, R{0}};
      for (std::size_t b = 1; b < count; ++b) {
        for (std::size_t l = 0; l < d; ++l) block_at(b, l) = block_at(0, l);
        if (b % 4 == 1) block_at(b, 0) = C{-R{0}, R{0}};
        if (b % 4 == 3) block_at(b, 0) = C{R{0}, -R{0}};
      }
      distinct = std::min<std::size_t>(count, 3);
      break;
  }
  return amp;
}

/// The operator applied block by block (one apply_batch of one block each),
/// with no deduplication.
template <typename R>
void reference_apply(std::vector<std::complex<R>>& amp, const Blocks& blocks,
                     const LinearOperator& op) {
  using C = std::complex<R>;
  const std::size_t d = blocks.offsets.size();
  std::vector<C> in(d), out(d);
  for (std::uint64_t base : blocks.bases) {
    for (std::size_t l = 0; l < d; ++l) in[l] = amp[base | blocks.offsets[l]];
    apply_on_rail(op, in.data(), out.data(), 1);
    for (std::size_t l = 0; l < d; ++l) amp[base | blocks.offsets[l]] = out[l];
  }
}

struct Layout {
  const char* name;
  std::size_t n;
  std::vector<std::size_t> targets;
  std::vector<std::size_t> controls;
};

/// Trailing targets in order (the memcpy gather) and scattered, unordered
/// targets (the offset table).
std::vector<Layout> layouts() {
  return {{"contiguous", 9, {5, 6, 7, 8}, {0}},
          {"offset-table", 9, {7, 1, 3, 2}, {8}}};
}

const char* repeats_name(Repeats r) {
  switch (r) {
    case Repeats::kNone: return "none";
    case Repeats::kSome: return "some";
    case Repeats::kAll: return "all";
    case Repeats::kSignedZeros: return "signed-zeros";
  }
  return "?";
}

template <typename R>
void expect_statevector_kernel_matches_reference() {
  using C = std::complex<R>;
  TelemetryOn telemetry_on;
  const SparseExpOperator chebyshev(path_matrix(16), 6.5, 0.0, 5.0);
  const RotateOperator rotate(16);
  const LinearOperator* ops[] = {&chebyshev, &rotate};
  Rng rng(223);
  for (const Layout& layout : layouts()) {
    const Blocks blocks =
        enumerate_blocks(layout.n, layout.targets, layout.controls);
    for (Repeats repeats : {Repeats::kNone, Repeats::kSome, Repeats::kAll,
                            Repeats::kSignedZeros}) {
      for (const LinearOperator* op : ops) {
        std::size_t distinct = 0;
        std::vector<C> amp =
            patterned_state<R>(layout.n, blocks, repeats, rng, distinct);
        BasicStatevector<R> sv(layout.n);
        sv.set_amplitudes(amp);
        const std::uint64_t rhs = counter("exec.operator.rhs");
        const std::uint64_t skipped = counter("exec.operator.rhs_skipped");
        sv.apply_operator(*op, layout.targets, layout.controls);
        reference_apply(amp, blocks, *op);
        EXPECT_TRUE(same_bytes(sv.amplitudes(), amp))
            << layout.name << ' ' << repeats_name(repeats) << ' '
            << op->name();
        EXPECT_EQ(counter("exec.operator.rhs") - rhs, blocks.bases.size());
        EXPECT_EQ(counter("exec.operator.rhs_skipped") - skipped,
                  blocks.bases.size() - distinct)
            << layout.name << ' ' << repeats_name(repeats);
      }
    }
  }
}

TEST(OperatorDedup, StatevectorKernelEqualsPerBlockReferenceFloat64) {
  expect_statevector_kernel_matches_reference<double>();
}

TEST(OperatorDedup, StatevectorKernelEqualsPerBlockReferenceFloat32) {
  expect_statevector_kernel_matches_reference<float>();
}

/// The density-matrix engine runs the same kernel on vec(ρ): the operator
/// on the row wires, its conjugate on the column wires.  Compare with the
/// reference applied to vec(ρ) read back element by element.
template <typename R>
void expect_density_matrix_kernel_matches_reference() {
  using C = std::complex<R>;
  const std::size_t n = 5;
  const std::vector<std::size_t> targets = {4, 1};
  const std::vector<std::size_t> controls = {0};
  const SparseExpOperator chebyshev(path_matrix(4), 6.5, 0.0, 5.0);
  const RotateOperator rotate(4);
  const LinearOperator* ops[] = {&chebyshev, &rotate};
  const Blocks psi_blocks = enumerate_blocks(n, targets, controls);
  std::vector<std::size_t> column_targets = targets, column_controls = controls;
  for (std::size_t& q : column_targets) q += n;
  for (std::size_t& q : column_controls) q += n;
  const Blocks row_blocks = enumerate_blocks(2 * n, targets, controls);
  const Blocks column_blocks =
      enumerate_blocks(2 * n, column_targets, column_controls);
  const std::uint64_t dim = std::uint64_t{1} << n;
  Rng rng(227);
  for (Repeats repeats : {Repeats::kNone, Repeats::kSome, Repeats::kAll}) {
    for (const LinearOperator* op : ops) {
      std::size_t distinct = 0;
      BasicStatevector<R> psi(n);
      psi.set_amplitudes(
          patterned_state<R>(n, psi_blocks, repeats, rng, distinct));
      BasicDensityMatrix<R> rho = BasicDensityMatrix<R>::from_statevector(psi);
      std::vector<C> vec(dim * dim);
      for (std::uint64_t r = 0; r < dim; ++r)
        for (std::uint64_t c = 0; c < dim; ++c) {
          const Amplitude e = rho.element(r, c);
          vec[r * dim + c] = C{static_cast<R>(e.real()),
                               static_cast<R>(e.imag())};
        }
      rho.apply_operator(*op, targets, controls);
      reference_apply(vec, row_blocks, *op);
      reference_apply(vec, column_blocks, ConjugatedOperator(*op));
      std::vector<C> got(dim * dim);
      for (std::uint64_t r = 0; r < dim; ++r)
        for (std::uint64_t c = 0; c < dim; ++c) {
          const Amplitude e = rho.element(r, c);
          got[r * dim + c] = C{static_cast<R>(e.real()),
                               static_cast<R>(e.imag())};
        }
      EXPECT_TRUE(same_bytes(got, vec))
          << repeats_name(repeats) << ' ' << op->name();
    }
  }
}

TEST(OperatorDedup, DensityMatrixKernelEqualsPerBlockReferenceFloat64) {
  expect_density_matrix_kernel_matches_reference<double>();
}

TEST(OperatorDedup, DensityMatrixKernelEqualsPerBlockReferenceFloat32) {
  expect_density_matrix_kernel_matches_reference<float>();
}

TEST(OperatorDedup, PurifiedThreePrecisionQubitEstimateSkipsFiveTwelfths) {
  // A power on precision wire j runs while the later wires are still |+⟩,
  // so it sees 2^j distinct blocks per ancilla value among its 2^(t−1): at
  // t = 3, 1 + 2 + 4 of 4 + 4 + 4.
  TelemetryOn telemetry_on;
  const SparseMatrix laplacian = path_matrix(5);  // padded to q = 3
  EstimatorOptions options;
  options.backend = EstimatorBackend::kCircuitSparse;
  options.mixed_state = MixedStateMode::kPurification;
  options.precision_qubits = 3;
  options.shots = 100;
  const BettiEstimate estimate =
      estimate_betti_from_sparse_laplacian(laplacian, options);
  EXPECT_EQ(estimate.precision_qubits, 3u);
  const std::uint64_t rhs = counter("exec.operator.rhs");
  const std::uint64_t skipped = counter("exec.operator.rhs_skipped");
  EXPECT_EQ(rhs, 3u * 4u * 8u);  // 3 powers × 2^(t−1) × 2^q ancilla values
  EXPECT_EQ(skipped * 12, rhs * 5);
}

}  // namespace
}  // namespace qtda
