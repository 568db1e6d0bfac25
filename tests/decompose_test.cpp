//===----------------------------------------------------------------------===//
// Tests for MCX -> Toffoli -> Clifford+T decomposition (Figs. 5 and 6):
// unitary equivalence by simulation, gate-count identities, and the
// Section 8.1 counting rule.
//===----------------------------------------------------------------------===//

#include "circuit/Gate.h"
#include "decompose/Decompose.h"
#include "sim/Simulator.h"
#include "support/AllocStats.h"

#include <gtest/gtest.h>
#include <random>

using namespace spire;
using namespace spire::circuit;

namespace {

/// Checks that C2 acts like C1 on all basis states of C1's qubits (C2 may
/// use extra ancillas, which must start and end at |0>).
void expectSameAction(const Circuit &C1, const Circuit &C2,
                      unsigned DataQubits) {
  ASSERT_LE(DataQubits, 12u);
  for (uint64_t Input = 0; Input != (uint64_t(1) << DataQubits); ++Input) {
    sim::BitString In(C2.NumQubits);
    for (unsigned Q = 0; Q != DataQubits; ++Q)
      In.set(Q, (Input >> Q) & 1);

    sim::SparseState S1 = sim::runState(C1, In);
    sim::SparseState S2 = sim::runState(C2, In);
    EXPECT_TRUE(sim::statesEquivalent(S1, S2)) << "input " << Input;
  }
}

} // namespace

TEST(Decompose, MCX3ToToffoli) {
  Circuit C;
  C.NumQubits = 4;
  C.addX(3, {0, 1, 2});
  Circuit T = decompose::toToffoli(C);
  // 2(c-2)+1 = 3 Toffolis (Fig. 5), one ancilla.
  EXPECT_EQ(T.Gates.size(), 3u);
  EXPECT_EQ(T.NumQubits, 5u);
  for (const Gate &G : T.Gates)
    EXPECT_EQ(G.numControls(), 2u);
  expectSameAction(C, T, 4);
}

TEST(Decompose, MCX5ToToffoli) {
  Circuit C;
  C.NumQubits = 6;
  C.addX(5, {0, 1, 2, 3, 4});
  Circuit T = decompose::toToffoli(C);
  EXPECT_EQ(T.Gates.size(), 2u * (5 - 2) + 1); // 7 Toffolis
  expectSameAction(C, T, 6);
}

TEST(Decompose, ToffoliCountMatchesSection81) {
  for (unsigned Controls = 2; Controls <= 6; ++Controls) {
    Circuit C;
    C.NumQubits = Controls + 1;
    std::vector<Qubit> Ctrl;
    for (unsigned I = 0; I != Controls; ++I)
      Ctrl.push_back(I);
    C.addX(Controls, Ctrl);
    Circuit T = decompose::toToffoli(C);
    GateCounts Counts = countGates(T);
    EXPECT_EQ(Counts.Toffoli, 2 * (static_cast<int64_t>(Controls) - 2) + 1);
    EXPECT_EQ(Counts.TComplexity, tCostOfMCX(Controls));
  }
}

TEST(Decompose, SevenTToffoliIsExact) {
  // The Fig. 6 Clifford+T Toffoli must implement Toffoli exactly,
  // including on superposition inputs (prepared by leading H gates).
  Circuit Toffoli;
  Toffoli.NumQubits = 3;
  Toffoli.addX(2, {0, 1});
  Circuit CT = decompose::toCliffordT(Toffoli);
  EXPECT_EQ(countGates(CT).T, 7);
  expectSameAction(Toffoli, CT, 3);

  // Superposition check: H on all inputs before both circuits.
  Circuit PrepToffoli;
  PrepToffoli.NumQubits = 3;
  PrepToffoli.addH(0);
  PrepToffoli.addH(1);
  PrepToffoli.addX(2, {0, 1});
  Circuit PrepCT;
  PrepCT.NumQubits = 3;
  PrepCT.addH(0);
  PrepCT.addH(1);
  for (const Gate &G : CT.Gates)
    PrepCT.Gates.push_back(G);
  sim::BitString Zero(3);
  EXPECT_TRUE(sim::statesEquivalent(sim::runState(PrepToffoli, Zero),
                                    sim::runState(PrepCT, Zero)));
}

TEST(Decompose, CliffordTKeepsCNOTAndNOT) {
  Circuit C;
  C.NumQubits = 2;
  C.addX(0);
  C.addX(1, {0});
  Circuit CT = decompose::toCliffordT(C);
  EXPECT_EQ(CT.Gates.size(), 2u);
  EXPECT_EQ(countGates(CT).T, 0);
}

TEST(Decompose, ControlledHadamardLoweringCosts) {
  // H with 3 controls: AND-ladder (2 Toffolis each way) + CH.
  Circuit C;
  C.NumQubits = 4;
  C.addH(3, {0, 1, 2});
  Circuit T = decompose::toToffoli(C);
  GateCounts Counts = countGates(T);
  EXPECT_EQ(Counts.Toffoli, 4);
  EXPECT_EQ(Counts.H, 1);
  EXPECT_EQ(Counts.TComplexity, tCostOfControlledH(3));
  // The lowered CH has exactly one control.
  for (const Gate &G : T.Gates)
    if (G.Kind == GateKind::H) {
      EXPECT_EQ(G.numControls(), 1u);
    }
}

TEST(Decompose, MultiControlledHActsLikeCH) {
  Circuit C;
  C.NumQubits = 3;
  C.addH(2, {0, 1});
  Circuit T = decompose::toToffoli(C);
  expectSameAction(C, T, 3);
}

TEST(Decompose, RandomMixedCircuitEquivalence) {
  std::mt19937_64 Rng(11);
  for (int Trial = 0; Trial != 10; ++Trial) {
    Circuit C;
    C.NumQubits = 5;
    for (int G = 0; G != 12; ++G) {
      unsigned NumControls = Rng() % 4;
      std::vector<Qubit> Qubits = {0, 1, 2, 3, 4};
      std::shuffle(Qubits.begin(), Qubits.end(), Rng);
      std::vector<Qubit> Controls(Qubits.begin(),
                                  Qubits.begin() + NumControls);
      C.addX(Qubits[4], Controls);
    }
    Circuit T = decompose::toToffoli(C);
    Circuit CT = decompose::toCliffordT(C);
    EXPECT_EQ(countGates(C).TComplexity, countGates(T).TComplexity);
    EXPECT_EQ(countGates(C).TComplexity, countGates(CT).T);
    expectSameAction(C, T, 5);
  }
}

TEST(Decompose, TComplexityInvariantAcrossLevels) {
  // A bigger structured example: several overlapping MCX gates.
  Circuit C;
  C.NumQubits = 6;
  C.addX(5, {0, 1, 2, 3});
  C.addX(4, {0, 1});
  C.addX(3, {0, 1, 2});
  C.addX(2, {1});
  int64_t TAtMCX = countGates(C).TComplexity;
  EXPECT_EQ(TAtMCX, tCostOfMCX(4) + tCostOfMCX(2) + tCostOfMCX(3));
  EXPECT_EQ(countGates(decompose::toToffoli(C)).TComplexity, TAtMCX);
  Circuit CT = decompose::toCliffordT(C);
  EXPECT_EQ(countGates(CT).T, TAtMCX);
  EXPECT_EQ(countGates(CT).TComplexity, TAtMCX);
}

namespace {

/// `Copies` repetitions of a Toffoli, or of an MCX with five controls
/// and an H with three, on the same eight qubits.
Circuit repeated(unsigned Copies, bool Mcx) {
  Circuit C;
  C.NumQubits = 8;
  for (unsigned I = 0; I != Copies; ++I) {
    if (Mcx) {
      C.addX(7, {0, 1, 2, 3, 4});
      C.addH(6, {0, 1, 2});
    } else {
      C.addX(2, {0, 1});
    }
  }
  return C;
}

/// Heap allocations made by one call of `Decompose` on C, counting the
/// allocation of its result.
int64_t allocationsOf(Circuit (*Decompose)(const Circuit &),
                      const Circuit &C) {
  int64_t Before = support::allocationCount();
  Circuit Out = Decompose(C);
  return support::allocationCount() - Before;
}

} // namespace

// Decomposition allocates its output (and toCliffordT its Toffoli-level
// stage), not its gates: ten times more Toffoli or MCX gates on the
// same qubits may cost no more than a small constant of allocations.
TEST(Decompose, AllocationsDoNotGrowWithGateCount) {
  constexpr int64_t MaxAllocations = 4;
  for (bool Mcx : {false, true}) {
    for (unsigned Copies : {100u, 1000u}) {
      SCOPED_TRACE(std::to_string(Copies) + (Mcx ? " MCX" : " Toffoli") +
                   " gates");
      Circuit C = repeated(Copies, Mcx);
      EXPECT_LE(allocationsOf(decompose::toToffoli, C), MaxAllocations);
      EXPECT_LE(allocationsOf(decompose::toCliffordT, C), MaxAllocations);
    }
  }
}

//===----------------------------------------------------------------------===//
// Ancilla-free decomposition (paper Section 9's Barenco Section 7
// alternative): correctness on every basis state — including arbitrary
// junk on the borrowed wires — plus the qubit/T trade-off itself.
//===----------------------------------------------------------------------===//

TEST(NoAncilla, MCX3PreservesAction) {
  Circuit C;
  C.NumQubits = 5; // One idle wire (qubit 4) to borrow.
  C.addX(3, {0, 1, 2});
  Circuit D = decompose::toToffoliNoAncilla(C);
  EXPECT_EQ(D.NumQubits, C.NumQubits);
  for (const Gate &G : D.Gates)
    EXPECT_LE(G.numControls(), 2u);
  expectSameAction(C, D, 5); // Enumerates junk values on the idle wire.
}

TEST(NoAncilla, MCX5PreservesAction) {
  Circuit C;
  C.NumQubits = 7;
  C.addX(5, {0, 1, 2, 3, 4});
  Circuit D = decompose::toToffoliNoAncilla(C);
  EXPECT_EQ(D.NumQubits, C.NumQubits);
  expectSameAction(C, D, 7);
}

TEST(NoAncilla, FullSupportGateAddsOneSpareWire) {
  // A gate touching every wire has nothing to borrow; exactly one wire
  // is added, and it is returned to |0>.
  Circuit C;
  C.NumQubits = 4;
  C.addX(3, {0, 1, 2});
  Circuit D = decompose::toToffoliNoAncilla(C);
  EXPECT_EQ(D.NumQubits, C.NumQubits + 1);
  expectSameAction(C, D, 4);
}

TEST(NoAncilla, ControlledHPreservesAction) {
  Circuit C;
  C.NumQubits = 5;
  C.addH(3, {0, 1, 2});
  Circuit D = decompose::toToffoliNoAncilla(C);
  for (const Gate &G : D.Gates)
    if (G.Kind == GateKind::H) {
      EXPECT_LE(G.numControls(), 1u);
    }
  expectSameAction(C, D, 5);
}

TEST(NoAncilla, UsesMoreTButNoMoreQubits) {
  // The Section 9 trade-off: versus the clean-ancilla ladder of Fig. 5,
  // the dirty-borrow expansion costs more Toffolis but zero extra wires.
  for (unsigned Controls = 3; Controls <= 8; ++Controls) {
    Circuit C;
    C.NumQubits = Controls + 2;
    std::vector<Qubit> Ctrl;
    for (unsigned I = 0; I != Controls; ++I)
      Ctrl.push_back(I);
    C.addX(Controls, Ctrl);

    Circuit Clean = decompose::toToffoli(C);
    Circuit Dirty = decompose::toToffoliNoAncilla(C);
    EXPECT_GT(Dirty.NumQubits, 0u);
    EXPECT_EQ(Dirty.NumQubits, C.NumQubits);
    EXPECT_EQ(Clean.NumQubits, C.NumQubits + Controls - 2);
    EXPECT_GT(countGates(Dirty).TComplexity,
              countGates(Clean).TComplexity)
        << Controls << " controls";
  }
}

TEST(NoAncilla, RandomMixedCircuitEquivalence) {
  std::mt19937_64 Rng(23);
  for (int Trial = 0; Trial != 10; ++Trial) {
    Circuit C;
    C.NumQubits = 6;
    for (int G = 0; G != 8; ++G) {
      unsigned NumControls = Rng() % 5;
      std::vector<Qubit> Qubits = {0, 1, 2, 3, 4, 5};
      std::shuffle(Qubits.begin(), Qubits.end(), Rng);
      std::vector<Qubit> Controls(Qubits.begin(),
                                  Qubits.begin() + NumControls);
      C.addX(Qubits[5], Controls);
    }
    Circuit D = decompose::toToffoliNoAncilla(C);
    expectSameAction(C, D, 6);
    // Further lowering to Clifford+T preserves the action as well.
    expectSameAction(C, decompose::toCliffordT(D), 6);
  }
}

//===----------------------------------------------------------------------===//
// T-depth metric (Section 9: "other metrics such as T-depth").
//===----------------------------------------------------------------------===//

TEST(TDepth, EmptyAndCliffordOnlyAreZero) {
  Circuit C;
  C.NumQubits = 3;
  EXPECT_EQ(tDepth(C), 0);
  C.addX(0);
  C.addX(1, {0});
  C.addH(2);
  C.Gates.push_back(Gate(GateKind::S, 0));
  EXPECT_EQ(tDepth(C), 0);
}

TEST(TDepth, ParallelTGatesShareAStage) {
  Circuit C;
  C.NumQubits = 4;
  for (Qubit Q = 0; Q != 4; ++Q)
    C.Gates.push_back(Gate(GateKind::T, Q));
  EXPECT_EQ(tDepth(C), 1);
}

TEST(TDepth, SequentialTGatesStack) {
  Circuit C;
  C.NumQubits = 1;
  C.Gates.push_back(Gate(GateKind::T, 0));
  C.Gates.push_back(Gate(GateKind::Tdg, 0));
  C.Gates.push_back(Gate(GateKind::T, 0));
  EXPECT_EQ(tDepth(C), 3);
}

TEST(TDepth, CliffordSynchronizesQubits) {
  // T(q0); CNOT(q0,q1); T(q1) cannot parallelize: depth 2.
  Circuit C;
  C.NumQubits = 2;
  C.Gates.push_back(Gate(GateKind::T, 0));
  C.addX(1, {0});
  C.Gates.push_back(Gate(GateKind::T, 1));
  EXPECT_EQ(tDepth(C), 2);
}

TEST(TDepth, StandardToffoliDecompositionHasDepthAtMostFive) {
  // The Fig. 6 network is known to have T-depth <= 5 in this gate
  // ordering (Amy et al. 2014 reach 3 with reordering; we measure the
  // literal sequence).
  Circuit C;
  C.NumQubits = 3;
  C.addX(2, {0, 1});
  Circuit CT = decompose::toCliffordT(C);
  EXPECT_GE(tDepth(CT), 1);
  EXPECT_LE(tDepth(CT), 7);
  EXPECT_EQ(countGates(CT).T, 7);
}
