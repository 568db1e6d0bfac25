#include "QoptReference.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

using namespace spire::circuit;

namespace spire::qopt {

namespace {

GateKind inverseKind(GateKind K) {
  switch (K) {
  case GateKind::T:
    return GateKind::Tdg;
  case GateKind::Tdg:
    return GateKind::T;
  case GateKind::S:
    return GateKind::Sdg;
  case GateKind::Sdg:
    return GateKind::S;
  default:
    return K; // X, H, Z are self-inverse.
  }
}

bool isInversePair(const Gate &A, const Gate &B) {
  return B.Kind == inverseKind(A.Kind) && A.Target == B.Target &&
         A.Controls == B.Controls;
}

/// A wire parity: a sorted set of region variables plus a complement bit.
struct Parity {
  std::vector<uint32_t> Vars; // Sorted, unique.
  bool Complemented = false;

  void reset(uint32_t V) {
    Vars.assign(1, V);
    Complemented = false;
  }
  void xorWith(const Parity &O) {
    std::vector<uint32_t> Merged;
    Merged.reserve(Vars.size() + O.Vars.size());
    std::set_symmetric_difference(Vars.begin(), Vars.end(), O.Vars.begin(),
                                  O.Vars.end(), std::back_inserter(Merged));
    Vars = std::move(Merged);
    Complemented ^= O.Complemented;
  }
};

/// Phase contribution of a gate kind in units of pi/4, mod 8.
int phaseUnits(GateKind K) {
  switch (K) {
  case GateKind::T:
    return 1;
  case GateKind::S:
    return 2;
  case GateKind::Z:
    return 4;
  case GateKind::Sdg:
    return 6;
  case GateKind::Tdg:
    return 7;
  default:
    return 0;
  }
}

/// Emits phase gates realizing `Units` (mod 8) of pi/4 onto a wire.
void emitPhase(int Units, Qubit Target, std::vector<Gate> &Out) {
  Units = ((Units % 8) + 8) % 8;
  if (Units >= 4) {
    Out.push_back(Gate(GateKind::Z, Target));
    Units -= 4;
  }
  if (Units >= 2) {
    Out.push_back(Gate(GateKind::S, Target));
    Units -= 2;
  }
  if (Units == 1)
    Out.push_back(Gate(GateKind::T, Target));
}

} // namespace

Circuit cancelAdjacentGatesReference(const Circuit &C,
                                     const CancelOptions &Options) {
  std::vector<Gate> Gates = C.Gates;
  std::vector<bool> Removed(Gates.size(), false);

  for (unsigned Round = 0; Round != Options.MaxRounds; ++Round) {
    bool Changed = false;
    for (size_t I = 0; I != Gates.size(); ++I) {
      if (Removed[I])
        continue;
      unsigned Scanned = 0;
      for (size_t J = I + 1; J != Gates.size(); ++J) {
        if (Removed[J])
          continue;
        if (isInversePair(Gates[I], Gates[J])) {
          Removed[I] = Removed[J] = true;
          Changed = true;
          break;
        }
        if (!gatesCommute(Gates[I], Gates[J]))
          break;
        if (++Scanned >= Options.MaxLookahead)
          break;
      }
    }
    if (!Changed)
      break;
    // Compact so later rounds see newly adjacent pairs.
    std::vector<Gate> Compacted;
    Compacted.reserve(Gates.size());
    for (size_t I = 0; I != Gates.size(); ++I)
      if (!Removed[I])
        Compacted.push_back(std::move(Gates[I]));
    Gates = std::move(Compacted);
    Removed.assign(Gates.size(), false);
  }

  Circuit Out;
  Out.NumQubits = C.NumQubits;
  for (size_t I = 0; I != Gates.size(); ++I)
    if (!Removed[I])
      Out.Gates.push_back(std::move(Gates[I]));
  return Out;
}

Circuit phaseFoldReference(const Circuit &C) {
  std::vector<Parity> Wire(C.NumQubits);
  uint32_t NextVar = 0;
  for (unsigned Q = 0; Q != C.NumQubits; ++Q)
    Wire[Q].reset(NextVar++);

  struct Accum {
    int Units = 0;
    size_t FirstGate = 0;
    Qubit Target = 0;
    bool FirstComplemented = false;
  };
  std::map<std::vector<uint32_t>, Accum> Phases;
  std::vector<bool> IsPhaseGate(C.Gates.size(), false);

  for (size_t I = 0; I != C.Gates.size(); ++I) {
    const Gate &G = C.Gates[I];
    if (G.isPhase() && G.Controls.empty()) {
      IsPhaseGate[I] = true;
      Parity &P = Wire[G.Target];
      int Units = phaseUnits(G.Kind);
      if (P.Complemented)
        Units = -Units;
      auto [It, Fresh] = Phases.try_emplace(P.Vars);
      if (Fresh) {
        It->second.FirstGate = I;
        It->second.Target = G.Target;
        It->second.FirstComplemented = P.Complemented;
      }
      It->second.Units = (It->second.Units + Units) % 8;
      continue;
    }
    switch (G.Kind) {
    case GateKind::X:
      if (G.Controls.empty()) {
        Wire[G.Target].Complemented ^= true;
      } else if (G.Controls.size() == 1) {
        Wire[G.Target].xorWith(Wire[G.Controls[0]]);
      } else {
        Wire[G.Target].reset(NextVar++);
      }
      break;
    case GateKind::H:
    default:
      Wire[G.Target].reset(NextVar++);
      break;
    }
  }

  std::map<size_t, const Accum *> EmitAt;
  for (const auto &[Vars, A] : Phases)
    if (A.Units % 8 != 0)
      EmitAt[A.FirstGate] = &A;

  Circuit Out;
  Out.NumQubits = C.NumQubits;
  for (size_t I = 0; I != C.Gates.size(); ++I) {
    auto It = EmitAt.find(I);
    if (It != EmitAt.end()) {
      const Accum &A = *It->second;
      emitPhase(A.FirstComplemented ? -A.Units : A.Units, A.Target,
                Out.Gates);
    }
    if (!IsPhaseGate[I])
      Out.Gates.push_back(C.Gates[I]);
  }
  return Out;
}

} // namespace spire::qopt
