/// \file circuit.hpp
/// \brief Gate-level circuit intermediate representation.
///
/// Circuits are flat gate lists over a fixed-width register.  Named
/// single-qubit gates keep their identity (so the compiler can cancel
/// inverse pairs of them); arbitrary unitaries are carried as dense matrices
/// over an ordered target list.  Any gate may carry controls, and a whole
/// circuit can be promoted to its controlled version — this is how the
/// QPE builder controls the Trotterized e^{iH} fragments.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "linalg/dense_matrix.hpp"
#include "linalg/linear_operator.hpp"

namespace qtda {

/// Identity of a gate in the IR.
enum class GateKind {
  kH,
  kX,
  kY,
  kZ,
  kS,
  kSdg,
  kT,
  kTdg,
  kRX,
  kRY,
  kRZ,
  kPhase,    ///< diag(1, e^{iφ})
  kUnitary,  ///< dense matrix over `targets`
  kOperator, ///< matrix-free LinearOperator over `targets`
};

/// Printable gate name ("H", "RZ", …).
std::string gate_kind_name(GateKind kind);

/// True for parameterized rotations (RX/RY/RZ/Phase).
bool is_rotation(GateKind kind);

/// True for self-inverse named gates (H/X/Y/Z).
bool is_self_inverse(GateKind kind);

/// One gate instance.
struct Gate {
  GateKind kind = GateKind::kH;
  std::vector<std::size_t> targets;   ///< ordered; MSB-first for kUnitary
  std::vector<std::size_t> controls;  ///< all-ones condition
  double parameter = 0.0;             ///< rotation angle / phase
  ComplexMatrix matrix;               ///< only for kUnitary
  /// Only for kOperator: the matrix-free action over `targets` (shared so
  /// circuit copies stay cheap; the operator itself is immutable).
  std::shared_ptr<const LinearOperator> op;

  /// The 2×2 matrix of a named single-qubit gate (throws for kUnitary and
  /// kOperator).
  ComplexMatrix single_qubit_matrix() const;
};

/// A circuit over `num_qubits` qubits.
class Circuit {
 public:
  explicit Circuit(std::size_t num_qubits);

  std::size_t num_qubits() const { return num_qubits_; }
  const std::vector<Gate>& gates() const { return gates_; }
  std::size_t gate_count() const { return gates_.size(); }

  /// Global phase e^{iφ} accumulated by phase-only terms (e.g. the identity
  /// component of a Pauli sum).  Physically unobservable but tracked so the
  /// simulated state matches the matrix exponential exactly.
  double global_phase() const { return global_phase_; }
  void add_global_phase(double phi) { global_phase_ += phi; }

  // -- appenders (all validate qubit indices) -------------------------------
  void h(std::size_t q);
  void x(std::size_t q);
  void y(std::size_t q);
  void z(std::size_t q);
  void s(std::size_t q);
  void sdg(std::size_t q);
  void t(std::size_t q);
  void tdg(std::size_t q);
  void rx(std::size_t q, double theta);
  void ry(std::size_t q, double theta);
  void rz(std::size_t q, double theta);
  void phase(std::size_t q, double phi);
  void cnot(std::size_t control, std::size_t target);
  void cz(std::size_t control, std::size_t target);
  void swap(std::size_t a, std::size_t b);  ///< emitted as three CNOTs
  void controlled_phase(std::size_t control, std::size_t target, double phi);
  /// Dense unitary over an ordered target list (first target = most
  /// significant local bit), optionally controlled.
  void unitary(const ComplexMatrix& u, std::vector<std::size_t> targets,
               std::vector<std::size_t> controls = {});
  /// Matrix-free operator over an ordered target list (same wire
  /// convention as unitary()), optionally controlled.  The operator must be
  /// unitary for the circuit to stay physical; its dimension must be
  /// 2^targets.  This is how the sparse QPE oracle enters the IR without a
  /// 2^q×2^q matrix.
  void operator_gate(std::shared_ptr<const LinearOperator> op,
                     std::vector<std::size_t> targets,
                     std::vector<std::size_t> controls = {});
  /// Appends an arbitrary gate.
  void append(Gate gate);
  /// Appends every gate of \p other (same register width required).
  void append_circuit(const Circuit& other);

  /// Returns this circuit with \p control added to every gate; the global
  /// phase becomes a Phase gate on the control qubit.
  Circuit controlled_on(std::size_t control) const;

  // -- metrics ---------------------------------------------------------------
  /// Circuit depth: longest chain of gates sharing qubits (controls count).
  std::size_t depth() const;
  /// Number of gates touching ≥ 2 qubits (controls included).
  std::size_t two_qubit_gate_count() const;
  /// Gate census by kind name, e.g. {"H": 3, "RZ": 10}.
  std::vector<std::pair<std::string, std::size_t>> gate_census() const;

  /// Multi-line text diagram (one line per gate; diagnostic aid).
  std::string to_string() const;

 private:
  void check_qubit(std::size_t q) const;
  void check_gate(const Gate& gate) const;

  std::size_t num_qubits_;
  std::vector<Gate> gates_;
  double global_phase_ = 0.0;
};

}  // namespace qtda
