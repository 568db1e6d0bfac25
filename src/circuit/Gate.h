//===----------------------------------------------------------------------===//
///
/// \file
/// Gate and circuit representation shared by the MCX-level, Toffoli-level,
/// and Clifford+T-level stages of the backend.
///
/// The MCX-level circuit uses X gates with arbitrary control lists (the
/// paper's "idealized gate set consisting of arbitrarily controllable
/// Clifford gates") plus possibly-controlled H. The Clifford+T level adds
/// T, Tdg, S, Sdg, Z. A controlled-H with exactly one control is kept as a
/// primitive whose T-cost is c_CH = 8 (Lee et al. 2021), exactly as the
/// paper's cost model treats it.
///
/// Post-decompose circuits are overwhelmingly CNOT/Toffoli, so `Gate`
/// stores its controls in a `ControlList` with two inline slots: the
/// whole backend (compile, decompose, legalize, optimize, count) handles
/// gates with <= 2 controls without touching the heap, and only true MCX
/// gates spill.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_CIRCUIT_GATE_H
#define SPIRE_CIRCUIT_GATE_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

namespace spire::circuit {

using Qubit = uint32_t;

/// A sorted list of control qubits with small-buffer storage: up to two
/// controls (NOT/CNOT/Toffoli/phases — everything a Clifford+T circuit
/// contains) live inline; only multiply-controlled gates allocate. The
/// interface is the subset of std::vector<Qubit> the backend uses, plus
/// equality against std::vector for tests.
class ControlList {
public:
  using value_type = Qubit;
  using iterator = Qubit *;
  using const_iterator = const Qubit *;

  static constexpr uint32_t InlineCapacity = 2;

  ControlList() = default;
  ControlList(std::initializer_list<Qubit> Qs) {
    append(Qs.begin(), Qs.end());
  }
  /*implicit*/ ControlList(const std::vector<Qubit> &Qs) {
    append(Qs.data(), Qs.data() + Qs.size());
  }
  template <typename It> ControlList(It First, It Last) {
    for (; First != Last; ++First)
      push_back(*First);
  }
  ControlList(const ControlList &O) { append(O.begin(), O.end()); }
  ControlList(ControlList &&O) noexcept { stealFrom(O); }
  ControlList &operator=(const ControlList &O) {
    if (this == &O)
      return *this;
    Count = 0;
    append(O.begin(), O.end());
    return *this;
  }
  ControlList &operator=(ControlList &&O) noexcept {
    if (this == &O)
      return *this;
    if (!isInline())
      delete[] Data;
    stealFrom(O);
    return *this;
  }
  ~ControlList() {
    if (!isInline())
      delete[] Data;
  }

  iterator begin() { return Data; }
  iterator end() { return Data + Count; }
  const_iterator begin() const { return Data; }
  const_iterator end() const { return Data + Count; }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  Qubit operator[](size_t I) const { return Data[I]; }
  Qubit &operator[](size_t I) { return Data[I]; }
  Qubit back() const { return Data[Count - 1]; }

  void push_back(Qubit Q) {
    if (Count == Cap)
      grow();
    Data[Count++] = Q;
  }
  /// Erases [First, Last), shifting the tail down (used by normalize()'s
  /// sort-unique).
  iterator erase(iterator First, iterator Last) {
    std::memmove(First, Last, (end() - Last) * sizeof(Qubit));
    Count -= static_cast<uint32_t>(Last - First);
    return First;
  }
  void clear() { Count = 0; }

  friend bool operator==(const ControlList &A, const ControlList &B) {
    return A.Count == B.Count &&
           std::memcmp(A.Data, B.Data, A.Count * sizeof(Qubit)) == 0;
  }
  friend bool operator!=(const ControlList &A, const ControlList &B) {
    return !(A == B);
  }
  friend bool operator==(const ControlList &A, const std::vector<Qubit> &B) {
    return A.Count == B.size() && std::equal(A.begin(), A.end(), B.begin());
  }
  friend bool operator==(const std::vector<Qubit> &A, const ControlList &B) {
    return B == A;
  }

private:
  bool isInline() const { return Data == InlineBuf; }
  void grow() {
    uint32_t NewCap = Cap * 2;
    Qubit *NewData = new Qubit[NewCap];
    std::memcpy(NewData, Data, Count * sizeof(Qubit));
    if (!isInline())
      delete[] Data;
    Data = NewData;
    Cap = NewCap;
  }
  void append(const Qubit *First, const Qubit *Last) {
    for (; First != Last; ++First)
      push_back(*First);
  }
  /// Takes O's storage (heap buffer or inline copy); leaves O empty.
  /// Precondition: this object holds no heap buffer.
  void stealFrom(ControlList &O) {
    if (O.isInline()) {
      std::memcpy(InlineBuf, O.InlineBuf, sizeof(InlineBuf));
      Data = InlineBuf;
      Cap = InlineCapacity;
    } else {
      Data = O.Data;
      Cap = O.Cap;
      O.Data = O.InlineBuf;
      O.Cap = InlineCapacity;
    }
    Count = O.Count;
    O.Count = 0;
  }

  Qubit InlineBuf[InlineCapacity] = {0, 0};
  Qubit *Data = InlineBuf;
  uint32_t Count = 0;
  uint32_t Cap = InlineCapacity;
};

enum class GateKind : uint8_t {
  X,   ///< NOT / CNOT / Toffoli / MCX depending on control count.
  H,   ///< Hadamard; one control makes it the primitive CH.
  T,   ///< pi/4 phase.
  Tdg, ///< -pi/4 phase (T-complexity 1, paper footnote 3).
  S,   ///< pi/2 phase (Clifford).
  Sdg, ///< -pi/2 phase (Clifford).
  Z,   ///< pi phase (Clifford).
};

/// One gate: a kind, a target qubit, and a (possibly empty) sorted list of
/// positive control qubits.
struct Gate {
  GateKind Kind = GateKind::X;
  Qubit Target = 0;
  ControlList Controls;

  Gate() = default;
  Gate(GateKind Kind, Qubit Target, ControlList Controls = {})
      : Kind(Kind), Target(Target), Controls(std::move(Controls)) {
    normalize();
  }

  /// Tag for the emitter's hot path: the control list is already sorted
  /// and deduplicated, so construction skips normalize()'s re-sort.
  struct PresortedTag {};
  Gate(GateKind Kind, Qubit Target, ControlList Controls, PresortedTag)
      : Kind(Kind), Target(Target), Controls(std::move(Controls)) {}

  /// Sorts the control list so structural equality is canonical, and
  /// dedupes repeated controls (a doubled control is the same single
  /// control). The target repeating a control has no such reading and
  /// stays an assertion; readers diagnose it before construction.
  void normalize();

  unsigned numControls() const {
    return static_cast<unsigned>(Controls.size());
  }
  bool isMCX() const { return Kind == GateKind::X; }
  bool isToffoli() const { return Kind == GateKind::X && numControls() == 2; }
  bool isCNOT() const { return Kind == GateKind::X && numControls() == 1; }
  bool isPhase() const {
    return Kind == GateKind::T || Kind == GateKind::Tdg ||
           Kind == GateKind::S || Kind == GateKind::Sdg ||
           Kind == GateKind::Z;
  }
  /// T or Tdg: contributes 1 to the T-count.
  bool isTLike() const { return Kind == GateKind::T || Kind == GateKind::Tdg; }

  /// True when `Q` is the target or a control of this gate.
  bool touches(Qubit Q) const;

  /// Whether this gate is its own inverse (X, H, Z are; T and S are not).
  bool isSelfInverse() const {
    return Kind == GateKind::X || Kind == GateKind::H ||
           Kind == GateKind::Z;
  }

  std::string str() const;
  friend bool operator==(const Gate &A, const Gate &B) {
    return A.Kind == B.Kind && A.Target == B.Target &&
           A.Controls == B.Controls;
  }
};

/// A flat gate list over `NumQubits` wires.
struct Circuit {
  unsigned NumQubits = 0;
  std::vector<Gate> Gates;

  void add(Gate G) {
    assert(G.Target < NumQubits && "gate target out of range");
    Gates.push_back(std::move(G));
  }
  void addX(Qubit Target, ControlList Controls = {}) {
    add(Gate(GateKind::X, Target, std::move(Controls)));
  }
  void addH(Qubit Target, ControlList Controls = {}) {
    add(Gate(GateKind::H, Target, std::move(Controls)));
  }

  size_t size() const { return Gates.size(); }
};

//===----------------------------------------------------------------------===//
// Gate counting (paper Section 8.1 methodology)
//===----------------------------------------------------------------------===//

/// T gates required to realize an MCX with `NumControls` controls via the
/// decompositions of Figs. 5 and 6: an MCX with c >= 2 controls expands to
/// 2(c-2)+1 Toffoli gates, each costing 7 T gates. NOT and CNOT are
/// Clifford and cost 0.
int64_t tCostOfMCX(unsigned NumControls);

/// T gates required for an H under `NumControls` controls: 0 uncontrolled,
/// c_CH = 8 for one control (Lee et al. 2021), and 8 + 14(c-1) for more
/// (an AND-ladder of c-1 Toffolis computed and uncomputed around a CH).
int64_t tCostOfControlledH(unsigned NumControls);

/// Counts of interest for a circuit at any stage.
struct GateCounts {
  int64_t Total = 0;     ///< All gates (the paper's MCX-complexity when the
                         ///< circuit is at the MCX level).
  int64_t MCX = 0;       ///< X-kind gates of any control count.
  int64_t Toffoli = 0;   ///< X-kind gates with exactly two controls.
  int64_t CNOT = 0;      ///< X-kind gates with exactly one control.
  int64_t H = 0;         ///< Hadamard gates (however controlled).
  int64_t T = 0;         ///< T + Tdg gates present in the gate list.
  /// T-complexity: for Clifford+T circuits this equals T; for MCX or
  /// Toffoli-level circuits it is the T-count the circuit would have after
  /// the standard decomposition (Section 8.1's counting rule).
  int64_t TComplexity = 0;
  int64_t Qubits = 0;
};

GateCounts countGates(const Circuit &C);

/// Operand well-formedness for a (prospective) gate, shared by the
/// interchange readers and analysis::verifyCircuit so every entry point
/// rejects the same shapes with the same words: the target repeating a
/// control (no sensible gate reading; a *doubled control* is fine and
/// dedupes), and — when `NumQubits` is nonzero — any operand outside the
/// declared wires. Returns the empty string when well-formed, otherwise
/// the diagnostic message.
std::string checkGateOperands(Qubit Target, const Qubit *CtrlBegin,
                              const Qubit *CtrlEnd, unsigned NumQubits);

/// T-depth of a circuit (Amy et al. 2014): the number of T stages on the
/// critical path, where gates acting on disjoint qubits may share a
/// stage. T and Tdg gates contribute one stage on the qubits they touch;
/// Clifford gates synchronize their qubits without adding a stage. Only
/// meaningful for Clifford+T-level circuits (X-kind gates with more than
/// two controls are rejected by assertion).
int64_t tDepth(const Circuit &C);

} // namespace spire::circuit

#endif // SPIRE_CIRCUIT_GATE_H
