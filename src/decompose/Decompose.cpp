#include "decompose/Decompose.h"

#include <algorithm>
#include <cassert>

using namespace spire::circuit;

namespace spire::decompose {

namespace {

/// Emits the AND-ladder computing the conjunction of the `Count >= 2`
/// controls at `Controls` into a chain of ancillas starting at
/// AncillaBase; appends the ladder gates to Out and returns the qubit
/// holding the full conjunction. The caller re-emits the ladder in
/// reverse to uncompute.
Qubit emitAndLadder(const Qubit *Controls, size_t Count, Qubit AncillaBase,
                    std::vector<Gate> &Out) {
  assert(Count >= 2 && "ladder needs at least two controls");
  Qubit Acc = AncillaBase;
  Out.push_back(Gate(GateKind::X, Acc, {Controls[0], Controls[1]}));
  for (size_t I = 2; I < Count; ++I) {
    Qubit Next = AncillaBase + static_cast<Qubit>(I - 1);
    Out.push_back(Gate(GateKind::X, Next, {Acc, Controls[I]}));
    Acc = Next;
  }
  return Acc;
}

/// Re-emits Out[Start, Start + Count) in reverse order (the ladder
/// uncompute). Out must have room reserved: the copies read Out itself.
void appendReversed(std::vector<Gate> &Out, size_t Start, size_t Count) {
  assert(Out.capacity() - Out.size() >= Count && "unreserved uncompute");
  for (size_t I = Start + Count; I-- > Start;)
    Out.push_back(Out[I]);
}

} // namespace

Circuit toToffoli(const Circuit &C) {
  // Ancilla requirement: c-2 for an X with c > 2 controls, c-1 for an H
  // with c > 1 controls. An X with c > 2 controls expands to 2(c-2)+1
  // Toffolis, an H with c > 1 controls to 2(c-1) Toffolis and a CH.
  unsigned MaxAncillas = 0;
  size_t OutSize = 0;
  for (const Gate &G : C.Gates) {
    unsigned NC = G.numControls();
    if (G.Kind == GateKind::X && NC > 2) {
      MaxAncillas = std::max(MaxAncillas, NC - 2);
      OutSize += 2 * (NC - 2) + 1;
    } else if (G.Kind == GateKind::H && NC > 1) {
      MaxAncillas = std::max(MaxAncillas, NC - 1);
      OutSize += 2 * (NC - 1) + 1;
    } else {
      ++OutSize;
    }
  }

  Circuit Out;
  Out.NumQubits = C.NumQubits + MaxAncillas;
  Out.Gates.reserve(OutSize);
  Qubit AncillaBase = C.NumQubits;

  for (const Gate &G : C.Gates) {
    unsigned NC = G.numControls();
    if (G.Kind == GateKind::X && NC > 2) {
      // Barenco Fig. 5: ladder over all controls but the last, then a
      // Toffoli of (ladder head, last control) onto the target.
      size_t Start = Out.Gates.size();
      Qubit Head =
          emitAndLadder(G.Controls.begin(), NC - 1, AncillaBase, Out.Gates);
      size_t Rungs = Out.Gates.size() - Start;
      Out.Gates.push_back(
          Gate(GateKind::X, G.Target, {Head, G.Controls.back()}));
      appendReversed(Out.Gates, Start, Rungs);
      continue;
    }
    if (G.Kind == GateKind::H && NC > 1) {
      size_t Start = Out.Gates.size();
      Qubit Head =
          emitAndLadder(G.Controls.begin(), NC, AncillaBase, Out.Gates);
      size_t Rungs = Out.Gates.size() - Start;
      Out.Gates.push_back(Gate(GateKind::H, G.Target, {Head}));
      appendReversed(Out.Gates, Start, Rungs);
      continue;
    }
    Out.Gates.push_back(G);
  }
  assert(Out.Gates.size() == OutSize && "output size miscounted");
  return Out;
}

Circuit toCliffordT(const Circuit &C) {
  // Normalize to the Toffoli level first.
  bool NeedsToffoliPass = false;
  for (const Gate &G : C.Gates) {
    if ((G.Kind == GateKind::X && G.numControls() > 2) ||
        (G.Kind == GateKind::H && G.numControls() > 1)) {
      NeedsToffoliPass = true;
      break;
    }
  }
  Circuit Staged;
  const Circuit *InPtr = &C;
  if (NeedsToffoliPass) {
    Staged = toToffoli(C);
    InPtr = &Staged;
  }
  const Circuit &In = *InPtr;

  // Each Toffoli becomes 15 gates; everything else is copied.
  size_t Toffolis = 0;
  for (const Gate &G : In.Gates)
    Toffolis += G.isToffoli();
  Circuit Out;
  Out.NumQubits = In.NumQubits;
  Out.Gates.reserve(In.Gates.size() + 14 * Toffolis);

  for (const Gate &G : In.Gates) {
    if (G.isToffoli()) {
      // Standard 7-T Toffoli (paper Fig. 6). Every gate has at most one
      // control, so its control list is sorted as built and inline.
      Qubit A = G.Controls[0], B = G.Controls[1], T = G.Target;
      auto Add = [&](GateKind K, Qubit Target, ControlList Controls = {}) {
        Out.Gates.push_back(
            Gate(K, Target, std::move(Controls), Gate::PresortedTag{}));
      };
      Add(GateKind::H, T);
      Add(GateKind::X, T, {B});
      Add(GateKind::Tdg, T);
      Add(GateKind::X, T, {A});
      Add(GateKind::T, T);
      Add(GateKind::X, T, {B});
      Add(GateKind::Tdg, T);
      Add(GateKind::X, T, {A});
      Add(GateKind::T, B);
      Add(GateKind::T, T);
      Add(GateKind::H, T);
      Add(GateKind::X, B, {A});
      Add(GateKind::T, A);
      Add(GateKind::Tdg, B);
      Add(GateKind::X, B, {A});
      continue;
    }
    Out.Gates.push_back(G);
  }
  return Out;
}

namespace {

/// Whether a gate of this kind and control count is a primitive of the
/// Clifford+Toffoli(+CH) level.
bool isNoAncillaBase(GateKind Kind, size_t NumControls) {
  return Kind == GateKind::X ? NumControls <= 2 : NumControls <= 1;
}

/// Recursively expands one gate by the dirty-borrow split V W V W (see
/// the header comment). `Kind` is X or H; `Controls`/`Target` describe
/// the gate; every wire of the circuit outside the gate's support may be
/// borrowed in an unknown state.
void expandDirty(GateKind Kind, const ControlList &Controls,
                 Qubit Target, unsigned NumQubits, std::vector<Gate> &Out) {
  if (isNoAncillaBase(Kind, Controls.size())) {
    Out.push_back(Gate(Kind, Target, Controls));
    return;
  }

  // Borrow any wire outside the gate's support as the dirty carrier.
  std::vector<bool> Used(NumQubits, false);
  Used[Target] = true;
  for (Qubit Q : Controls)
    Used[Q] = true;
  Qubit Aux = 0;
  while (Aux < NumQubits && Used[Aux])
    ++Aux;
  assert(Aux < NumQubits && "no borrowable wire; caller adds one");

  // Split the controls: V computes AND(First) onto Aux (toggling it), W
  // applies the gate under AND(Rest) and Aux. The V W V W sequence
  // applies the gate to the target exactly when both halves hold (an
  // even number of applications of a self-inverse gate is the identity),
  // and restores Aux to its unknown initial state.
  //
  // For X both halves must shrink, so the controls split evenly. For H
  // the W gate must bottom out at the primitive single-controlled CH, so
  // V takes every control (V is X-kind and terminates independently).
  size_t Half = Kind == GateKind::H ? Controls.size()
                                    : (Controls.size() + 1) / 2;
  ControlList First(Controls.begin(), Controls.begin() + Half);
  ControlList Rest(Controls.begin() + Half, Controls.end());
  Rest.push_back(Aux);

  for (int Round = 0; Round != 2; ++Round) {
    expandDirty(GateKind::X, First, Aux, NumQubits, Out);
    expandDirty(Kind, Rest, Target, NumQubits, Out);
  }
}

} // namespace

Circuit toToffoliNoAncilla(const Circuit &C) {
  // A gate whose support is the whole register has nothing to borrow;
  // only then is one extra wire added (shared by all such gates).
  bool NeedsSpare = false;
  for (const Gate &G : C.Gates)
    if (!isNoAncillaBase(G.Kind, G.numControls()) &&
        G.numControls() + 1 >= C.NumQubits)
      NeedsSpare = true;

  Circuit Out;
  Out.NumQubits = C.NumQubits + (NeedsSpare ? 1 : 0);
  for (const Gate &G : C.Gates) {
    if (isNoAncillaBase(G.Kind, G.numControls())) {
      Out.Gates.push_back(G);
      continue;
    }
    expandDirty(G.Kind, G.Controls, G.Target, Out.NumQubits, Out.Gates);
  }
  return Out;
}

} // namespace spire::decompose
