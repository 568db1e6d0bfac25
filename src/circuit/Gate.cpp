#include "circuit/Gate.h"

#include <algorithm>

namespace spire::circuit {

void Gate::normalize() {
  std::sort(Controls.begin(), Controls.end());
  Controls.erase(std::unique(Controls.begin(), Controls.end()),
                 Controls.end());
  assert(std::find(Controls.begin(), Controls.end(), Target) ==
             Controls.end() &&
         "gate target cannot also be a control");
}

bool Gate::touches(Qubit Q) const {
  if (Target == Q)
    return true;
  return std::binary_search(Controls.begin(), Controls.end(), Q);
}

static const char *kindName(GateKind K) {
  switch (K) {
  case GateKind::X:
    return "X";
  case GateKind::H:
    return "H";
  case GateKind::T:
    return "T";
  case GateKind::Tdg:
    return "T*";
  case GateKind::S:
    return "S";
  case GateKind::Sdg:
    return "S*";
  case GateKind::Z:
    return "Z";
  }
  return "?";
}

std::string Gate::str() const {
  std::string Out = kindName(Kind);
  Out += " ";
  for (Qubit C : Controls) {
    Out += "q" + std::to_string(C) + " ";
  }
  Out += "q" + std::to_string(Target);
  return Out;
}

std::string checkGateOperands(Qubit Target, const Qubit *CtrlBegin,
                              const Qubit *CtrlEnd, unsigned NumQubits) {
  auto outOfRange = [&](Qubit Q) {
    return "qubit index " + std::to_string(Q) +
           " out of range for a circuit with " + std::to_string(NumQubits) +
           " wires";
  };
  if (NumQubits != 0 && Target >= NumQubits)
    return outOfRange(Target);
  for (const Qubit *C = CtrlBegin; C != CtrlEnd; ++C) {
    if (NumQubits != 0 && *C >= NumQubits)
      return outOfRange(*C);
    if (*C == Target)
      return "gate target repeats a control qubit";
  }
  return "";
}

int64_t tCostOfMCX(unsigned NumControls) {
  if (NumControls <= 1)
    return 0;
  return 7 * (2 * (static_cast<int64_t>(NumControls) - 2) + 1);
}

int64_t tCostOfControlledH(unsigned NumControls) {
  if (NumControls == 0)
    return 0;
  return 8 + 14 * (static_cast<int64_t>(NumControls) - 1);
}

GateCounts countGates(const Circuit &C) {
  GateCounts Counts;
  Counts.Qubits = C.NumQubits;
  for (const Gate &G : C.Gates) {
    ++Counts.Total;
    switch (G.Kind) {
    case GateKind::X:
      ++Counts.MCX;
      if (G.numControls() == 1)
        ++Counts.CNOT;
      if (G.numControls() == 2)
        ++Counts.Toffoli;
      Counts.TComplexity += tCostOfMCX(G.numControls());
      break;
    case GateKind::H:
      ++Counts.H;
      Counts.TComplexity += tCostOfControlledH(G.numControls());
      break;
    case GateKind::T:
    case GateKind::Tdg:
      ++Counts.T;
      ++Counts.TComplexity;
      break;
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::Z:
      break;
    }
  }
  return Counts;
}

int64_t tDepth(const Circuit &C) {
  // Per-qubit stage counter: a gate's stage is the maximum over the
  // qubits it touches; T-like gates advance it by one.
  std::vector<int64_t> Stage(C.NumQubits, 0);
  int64_t Result = 0;
  for (const Gate &G : C.Gates) {
    assert((G.Kind != GateKind::X || G.numControls() <= 2) &&
           "tDepth expects a Clifford+T-level circuit");
    int64_t S = Stage[G.Target];
    for (Qubit Q : G.Controls)
      S = std::max(S, Stage[Q]);
    if (G.isTLike())
      ++S;
    Stage[G.Target] = S;
    for (Qubit Q : G.Controls)
      Stage[Q] = S;
    Result = std::max(Result, S);
  }
  return Result;
}

} // namespace spire::circuit
