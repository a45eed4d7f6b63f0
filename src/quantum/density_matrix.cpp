#include "quantum/density_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "quantum/executor.hpp"

namespace qtda {

namespace {

ComplexMatrix conjugate(const ComplexMatrix& m) {
  ComplexMatrix out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i)
    out.data()[i] = std::conj(m.data()[i]);
  return out;
}

// Validated before the 4^n vectorized storage is allocated.
std::size_t checked_density_width(std::size_t num_qubits) {
  QTDA_REQUIRE(num_qubits >= 1 && num_qubits <= kDensityMatrixMaxQubits,
               "density matrix width " << num_qubits
                                       << " unsupported (4^n storage)");
  return num_qubits;
}

}  // namespace

template <typename Real>
BasicDensityMatrix<Real>::BasicDensityMatrix(std::size_t num_qubits)
    : num_qubits_(checked_density_width(num_qubits)),
      vectorized_(2 * num_qubits) {}

template <typename Real>
BasicDensityMatrix<Real>::BasicDensityMatrix(
    std::size_t num_qubits, BasicStatevector<Real> vectorized)
    : num_qubits_(num_qubits), vectorized_(std::move(vectorized)) {}

template <typename Real>
BasicDensityMatrix<Real> BasicDensityMatrix<Real>::from_statevector(
    const BasicStatevector<Real>& psi) {
  BasicDensityMatrix rho(psi.num_qubits());
  const std::uint64_t dim = psi.dimension();
  std::vector<C> vec(dim * dim);
  for (std::uint64_t r = 0; r < dim; ++r)
    for (std::uint64_t c = 0; c < dim; ++c)
      vec[r * dim + c] = psi.amplitude(r) * std::conj(psi.amplitude(c));
  rho.vectorized_.set_amplitudes(std::move(vec));
  return rho;
}

template <typename Real>
BasicDensityMatrix<Real> BasicDensityMatrix<Real>::maximally_mixed(
    std::size_t num_qubits) {
  BasicDensityMatrix rho(num_qubits);
  const std::uint64_t dim = rho.dimension();
  std::vector<C> vec(dim * dim);
  const Real weight = static_cast<Real>(1.0 / static_cast<double>(dim));
  for (std::uint64_t r = 0; r < dim; ++r) vec[r * dim + r] = weight;
  rho.vectorized_.set_amplitudes(std::move(vec));
  return rho;
}

template <typename Real>
Amplitude BasicDensityMatrix<Real>::element(std::uint64_t row,
                                            std::uint64_t col) const {
  QTDA_REQUIRE(row < dimension() && col < dimension(),
               "density matrix index out of range");
  return widen(vectorized_.amplitude(row * dimension() + col));
}

template <typename Real>
void BasicDensityMatrix<Real>::set_basis_state(std::uint64_t index) {
  QTDA_REQUIRE(index < dimension(), "basis index out of range");
  vectorized_.set_basis_state(index * dimension() + index);
}

template <typename Real>
void BasicDensityMatrix<Real>::apply_gate(const Gate& gate) {
  if (gate.kind == GateKind::kOperator) {
    QTDA_REQUIRE(gate.op != nullptr, "operator gate without an operator");
    apply_operator(*gate.op, gate.targets, gate.controls);
    return;
  }
  // Row side: the gate verbatim (row register occupies qubits [0, n)).
  vectorized_.apply_gate(gate);
  // Column side: conj(U) on the column register [n, 2n).
  Gate column = gate;
  column.kind = GateKind::kUnitary;
  column.matrix = conjugate(gate.kind == GateKind::kUnitary
                                ? gate.matrix
                                : gate.single_qubit_matrix());
  for (std::size_t& q : column.targets) q += num_qubits_;
  for (std::size_t& q : column.controls) q += num_qubits_;
  vectorized_.apply_gate(column);
}

template <typename Real>
void BasicDensityMatrix<Real>::apply_operator(
    const LinearOperator& op, const std::vector<std::size_t>& targets,
    const std::vector<std::size_t>& controls) {
  for (std::size_t q : targets)
    QTDA_REQUIRE(q < num_qubits_, "operator target out of range");
  for (std::size_t q : controls)
    QTDA_REQUIRE(q < num_qubits_, "operator control out of range");
  // vec(UρU†) = (U ⊗ conj(U))·vec(ρ): the operator verbatim on the row
  // register [0, n), its conjugate on the column register [n, 2n).  Both
  // halves run through the matrix-free gather/scatter path of the 2n-qubit
  // statevector, so the oracle is never densified.
  vectorized_.apply_operator(op, targets, controls);
  std::vector<std::size_t> column_targets(targets);
  std::vector<std::size_t> column_controls(controls);
  for (std::size_t& q : column_targets) q += num_qubits_;
  for (std::size_t& q : column_controls) q += num_qubits_;
  const ConjugatedOperator conjugated(op);
  vectorized_.apply_operator(conjugated, column_targets, column_controls);
}

template <typename Real>
void BasicDensityMatrix<Real>::apply_plan_op(const CompiledOp& op) {
  if (op.kind == CompiledOp::Kind::kDiagonal) {
    // DρD† in one pass over vec(ρ), no dense 2^m×2^m fallback.
    apply_diagonal(compiled_diagonal<Real>(op), op.diag_extract);
  } else {
    apply_gate(op.gate);
  }
}

template <typename Real>
void BasicDensityMatrix<Real>::apply_plan(const ExecutionPlan& plan) {
  QTDA_REQUIRE(plan.num_qubits() == num_qubits_,
               "plan width " << plan.num_qubits()
                             << " does not match density matrix width "
                             << num_qubits_);
  for_each_plan_op_accounted(
      plan, [&](const CompiledOp& op) { apply_plan_op(op); });
  // e^{iφ}ρe^{−iφ} = ρ: the global phase cancels.
}

template <typename Real>
void BasicDensityMatrix<Real>::apply_plan_with_noise(const ExecutionPlan& plan,
                                                     const NoiseModel& noise) {
  QTDA_REQUIRE(plan.num_qubits() == num_qubits_,
               "plan width " << plan.num_qubits()
                             << " does not match density matrix width "
                             << num_qubits_);
  for_each_plan_op_with_noise(
      plan, noise, [&](const CompiledOp& op) { apply_plan_op(op); },
      [&](std::size_t q, double p) { apply_depolarizing(q, p); });
}

template <typename Real>
void BasicDensityMatrix<Real>::apply_diagonal(const C* table,
                                              const DiagonalExtract& extract) {
  // vec(DρD†) entry (r, c) scales by table[l(r)]·conj(table[l(c)]).  The
  // row register holds the high n bits of the vectorized index, the column
  // register the low n bits; both reuse the n-register extraction recipe on
  // their own half.
  const std::size_t runs = extract.shifts.size();
  C* v = vectorized_.mutable_amplitudes();
  const std::uint64_t dim = vectorized_.dimension();
  const std::uint64_t col_mask = (std::uint64_t{1} << num_qubits_) - 1;
  for (std::uint64_t i = 0; i < dim; ++i) {
    const std::uint64_t row = i >> num_qubits_;
    const std::uint64_t col = i & col_mask;
    std::uint64_t row_local = 0;
    std::uint64_t col_local = 0;
    for (std::size_t r = 0; r < runs; ++r) {
      row_local |= (row >> extract.shifts[r]) & extract.masks[r];
      col_local |= (col >> extract.shifts[r]) & extract.masks[r];
    }
    v[i] *= table[row_local] * std::conj(table[col_local]);
  }
}

template <typename Real>
void BasicDensityMatrix<Real>::apply_depolarizing(std::size_t qubit,
                                                  double probability) {
  QTDA_REQUIRE(qubit < num_qubits_, "qubit out of range");
  QTDA_REQUIRE(probability >= 0.0 && probability <= 1.0,
               "error probability out of [0,1]");
  if (probability == 0.0) return;
  // Closed form of (1−p)ρ + (p/3)(XρX + YρY + ZρZ) on one qubit:
  //   off-diagonal (in that qubit):  scaled by (1 − 4p/3)
  //   diagonal pair (a, d):          a' = (1−2p/3)a + (2p/3)d  (and sym.)
  // One pass over vec(ρ), no temporaries.  The weights are evaluated in
  // double and narrowed once, so the double path's expressions are
  // unchanged.
  const Real shrink = static_cast<Real>(1.0 - 4.0 * probability / 3.0);
  const Real mix = static_cast<Real>(2.0 * probability / 3.0);
  const std::size_t total = 2 * num_qubits_;
  const std::uint64_t row_mask = qubit_mask(qubit, total);
  const std::uint64_t col_mask = qubit_mask(qubit + num_qubits_, total);
  C* v = vectorized_.mutable_amplitudes();
  const std::uint64_t dim = std::uint64_t{1} << total;
  for (std::uint64_t i = 0; i < dim; ++i) {
    if ((i & row_mask) != 0 || (i & col_mask) != 0) continue;
    const std::uint64_t i00 = i;
    const std::uint64_t i01 = i | col_mask;
    const std::uint64_t i10 = i | row_mask;
    const std::uint64_t i11 = i | row_mask | col_mask;
    const C a = v[i00];
    const C d = v[i11];
    v[i00] = shrink * a + mix * (a + d);
    v[i11] = shrink * d + mix * (a + d);
    v[i01] *= shrink;
    v[i10] *= shrink;
  }
}

template <typename Real>
double BasicDensityMatrix<Real>::trace() const {
  double t = 0.0;
  for (std::uint64_t r = 0; r < dimension(); ++r)
    t += element(r, r).real();
  return t;
}

template <typename Real>
double BasicDensityMatrix<Real>::purity() const {
  // Tr ρ² = Σ_{r,c} |ρ(r,c)|² for Hermitian ρ — the vectorized 2-norm.
  return vectorized_.norm_squared();
}

template <typename Real>
std::vector<double> BasicDensityMatrix<Real>::probabilities() const {
  std::vector<double> p(dimension());
  for (std::uint64_t r = 0; r < dimension(); ++r)
    p[r] = std::max(element(r, r).real(), 0.0);
  return p;
}

template <typename Real>
std::vector<double> BasicDensityMatrix<Real>::marginal_probabilities(
    const std::vector<std::size_t>& qubits) const {
  QTDA_REQUIRE(!qubits.empty(), "marginal over an empty qubit set");
  const std::size_t m = qubits.size();
  std::vector<std::uint64_t> bit_mask(m);
  for (std::size_t j = 0; j < m; ++j) {
    QTDA_REQUIRE(qubits[j] < num_qubits_, "qubit out of range");
    bit_mask[j] = qubit_mask(qubits[m - 1 - j], num_qubits_);
  }
  std::vector<double> marginal(std::uint64_t{1} << m, 0.0);
  const auto diag = probabilities();
  for (std::uint64_t r = 0; r < dimension(); ++r) {
    std::uint64_t outcome = 0;
    for (std::size_t j = 0; j < m; ++j)
      if (r & bit_mask[j]) outcome |= std::uint64_t{1} << j;
    marginal[outcome] += diag[r];
  }
  return marginal;
}

template <typename Real>
std::vector<std::uint64_t> BasicDensityMatrix<Real>::sample_counts(
    const std::vector<std::size_t>& qubits, std::size_t shots,
    Rng& rng) const {
  return multinomial_sample(marginal_probabilities(qubits), shots, rng);
}

template class BasicDensityMatrix<double>;
template class BasicDensityMatrix<float>;

DensityMatrix run_circuit_density(const Circuit& circuit,
                                  const NoiseModel& noise) {
  DensityMatrix rho(circuit.num_qubits());
  CompilerOptions options;
  if (noise.is_noiseless()) {
    options.fuse = false;
    rho.apply_plan(compile_circuit(circuit, options));
  } else {
    options.preserve_noise_slots = true;
    rho.apply_plan_with_noise(compile_circuit(circuit, options), noise);
  }
  return rho;
}

}  // namespace qtda
