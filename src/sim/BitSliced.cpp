#include "sim/BitSliced.h"

#include "sim/Simulator.h"
#include "support/Hash.h"

#include <cassert>

using namespace spire::circuit;

namespace spire::sim {

namespace {

/// Lane q < 6 of a block-aligned counter sweep is a fixed pattern: bit i
/// of the lane is bit q of the in-block state index i.
constexpr uint64_t CounterLane[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};

} // namespace

void loadCounterBlock(uint64_t *L, unsigned NumQubits, uint64_t Base,
                      unsigned Width) {
  assert(Base % LaneBits == 0 && "counter base must be block-aligned");
  for (unsigned Q = 0; Q != NumQubits; ++Q) {
    if (Q >= Width)
      L[Q] = 0;
    else if (Q < 6)
      L[Q] = CounterLane[Q];
    else
      L[Q] = Q < 64 && ((Base >> Q) & 1) ? ~uint64_t(0) : 0;
  }
}

void loadRandomBlock(uint64_t *L, unsigned NumQubits, unsigned Width,
                     uint64_t &Rng) {
  for (unsigned Q = 0; Q != NumQubits; ++Q)
    L[Q] = Q < Width ? support::splitMix64(Rng) : 0;
}

void BatchState::loadCounter(uint64_t B, uint64_t Base, unsigned Width) {
  loadCounterBlock(block(B), Qubits, Base, Width);
}

std::optional<BitSlicedSimulator>
BitSlicedSimulator::compile(const Circuit &C) {
  BitSlicedSimulator Sim;
  Sim.NumQubits = C.NumQubits;
  Sim.NumGates = C.Gates.size();
  Sim.Tape.reserve(C.Gates.size());

  // The three-CNOT swap idiom compiles to one lane exchange.
  auto isCnot = [](const Gate &G, Qubit Target, Qubit Control) {
    return G.Kind == GateKind::X && G.numControls() == 1 &&
           G.Target == Target && G.Controls[0] == Control;
  };

  for (size_t I = 0; I != C.Gates.size(); ++I) {
    const Gate &G = C.Gates[I];
    if (G.Kind != GateKind::X)
      return std::nullopt; // H / phase gates: not classical reversible.

    if (G.numControls() == 1 && I + 2 < C.Gates.size()) {
      Qubit T = G.Target, A = G.Controls[0];
      if (isCnot(C.Gates[I + 1], A, T) && isCnot(C.Gates[I + 2], T, A)) {
        Sim.Tape.push_back({BitOp::Swap, T, A, 0});
        I += 2;
        continue;
      }
    }

    switch (G.numControls()) {
    case 0:
      Sim.Tape.push_back({BitOp::Flip, 0, 0, G.Target});
      break;
    case 1:
      Sim.Tape.push_back({BitOp::Cnot, G.Controls[0], 0, G.Target});
      break;
    case 2:
      Sim.Tape.push_back(
          {BitOp::Toffoli, G.Controls[0], G.Controls[1], G.Target});
      break;
    default:
      Sim.Tape.push_back(
          {BitOp::AndInit, G.Controls[0], G.Controls[1], 0});
      for (unsigned K = 2; K != G.numControls(); ++K)
        Sim.Tape.push_back({BitOp::AndFold, G.Controls[K], 0, 0});
      Sim.Tape.push_back({BitOp::XorAcc, 0, 0, G.Target});
      break;
    }
  }
  return Sim;
}

void BitSlicedSimulator::runBlock(uint64_t *L) const {
  uint64_t Acc = 0;
  for (const BitOp &Op : Tape) {
    switch (Op.K) {
    case BitOp::Flip:
      L[Op.T] = ~L[Op.T];
      break;
    case BitOp::Cnot:
      L[Op.T] ^= L[Op.A];
      break;
    case BitOp::Toffoli:
      L[Op.T] ^= L[Op.A] & L[Op.B];
      break;
    case BitOp::AndInit:
      Acc = L[Op.A] & L[Op.B];
      break;
    case BitOp::AndFold:
      Acc &= L[Op.A];
      break;
    case BitOp::XorAcc:
      L[Op.T] ^= Acc;
      break;
    case BitOp::Swap: {
      uint64_t Tmp = L[Op.A];
      L[Op.A] = L[Op.B];
      L[Op.B] = Tmp;
      break;
    }
    }
  }
}

void BitSlicedSimulator::run(BatchState &B) const {
  assert(B.numQubits() >= NumQubits &&
         "batch narrower than the compiled circuit");
  for (uint64_t I = 0; I != B.numBlocks(); ++I)
    runBlock(B.block(I));
}

bool laneAgreesWithBasis(const Circuit &C, const uint64_t *In,
                         const uint64_t *Out, unsigned Bit) {
  assert(Bit < LaneBits && "bit position outside the lane word");
  BitString S(C.NumQubits);
  for (unsigned Q = 0; Q != C.NumQubits; ++Q)
    S.set(Q, (In[Q] >> Bit) & 1);
  runBasis(C, S);
  for (unsigned Q = 0; Q != C.NumQubits; ++Q)
    if (S.get(Q) != (((Out[Q] >> Bit) & 1) != 0))
      return false;
  return true;
}

} // namespace spire::sim
