//===----------------------------------------------------------------------===//
// Differential fuzzing of the netlist-based optimizer hot path against
// the pre-netlist reference implementations: on seeded random Clifford+T
// circuits, cancelAdjacentGates + phaseFold must (a) agree with the
// reference passes up to never-being-worse and (b) stay simulation-
// equivalent to the unoptimized circuit. This is the safety net under
// the PR-4 rewrite — any divergence between the two code paths that
// changes semantics or loses optimization power fails here with the
// seed that found it.
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "benchmarks/Harness.h"
#include "interchange/Interchange.h"
#include "QoptReference.h"
#include "qopt/Passes.h"
#include "sim/BitSliced.h"
#include "sim/Simulator.h"
#include "support/AllocStats.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <random>

using namespace spire;
using namespace spire::circuit;

namespace {

/// A random Clifford+T circuit with cancellation and folding material:
/// CNOTs, phases, occasional H barriers (bounded so sparse simulation
/// stays small), Toffolis, and a bias toward adjacent inverse pairs.
Circuit randomCliffordT(uint64_t Seed, unsigned NumQubits,
                        unsigned NumGates, unsigned MaxH) {
  std::mt19937_64 Rng(Seed);
  Circuit C;
  C.NumQubits = NumQubits;
  unsigned HBudget = MaxH;
  auto randomQubit = [&] { return static_cast<Qubit>(Rng() % NumQubits); };
  while (C.Gates.size() < NumGates) {
    Qubit T = randomQubit();
    switch (Rng() % 8) {
    case 0:
      C.addX(T);
      break;
    case 1:
    case 2: {
      Qubit A = randomQubit();
      if (A == T)
        A = (A + 1) % NumQubits;
      C.addX(T, {A});
      break;
    }
    case 3: {
      Qubit A = (T + 1 + Rng() % (NumQubits - 1)) % NumQubits;
      Qubit B = (T + 1 + Rng() % (NumQubits - 1)) % NumQubits;
      if (B == A)
        B = (B + 1) % NumQubits == T ? (B + 2) % NumQubits
                                     : (B + 1) % NumQubits;
      C.addX(T, {A, B});
      break;
    }
    case 4:
      C.add(Gate(Rng() % 2 ? GateKind::T : GateKind::Tdg, T));
      break;
    case 5:
      C.add(Gate(Rng() % 2 ? GateKind::S : GateKind::Sdg, T));
      break;
    case 6:
      if (HBudget > 0) {
        --HBudget;
        C.addH(T);
      } else {
        C.add(Gate(GateKind::Z, T));
      }
      break;
    default:
      // Duplicate the previous gate: adjacent self-inverse pairs for the
      // cancellation pass, doubled phases for the folding pass.
      if (!C.Gates.empty())
        C.Gates.push_back(C.Gates.back());
      break;
    }
  }
  return C;
}

/// A random CNOT+phase circuit rich in distinct wire parities — the
/// shape that grows phaseFold's phase table and parity arena far past
/// their initial sizes. Parities draw only on the NumQubits initial
/// variables plus one fresh variable per H or Toffoli (at most
/// MaxResets of them), so keeping that sum within 64 keeps every parity
/// under phaseFold's support cap, where the uncapped oracle must agree
/// gate for gate.
Circuit randomParityCircuit(uint64_t Seed, unsigned NumQubits,
                            size_t NumGates, unsigned MaxResets) {
  std::mt19937_64 Rng(Seed);
  Circuit C;
  C.NumQubits = NumQubits;
  C.Gates.reserve(NumGates);
  unsigned Resets = MaxResets;
  auto randomQubit = [&] { return static_cast<Qubit>(Rng() % NumQubits); };
  auto otherQubit = [&](Qubit T) {
    return static_cast<Qubit>((T + 1 + Rng() % (NumQubits - 1)) % NumQubits);
  };
  static constexpr GateKind Phases[] = {GateKind::T, GateKind::Tdg,
                                        GateKind::S, GateKind::Sdg,
                                        GateKind::Z};
  while (C.Gates.size() < NumGates) {
    Qubit T = randomQubit();
    uint64_t R = Rng() % 20;
    if (R < 10) {
      // A CNOT, then a phase on the parity it just made.
      C.addX(T, {otherQubit(T)});
      C.add(Gate(Phases[Rng() % 5], T));
    } else if (R < 15) {
      C.add(Gate(Phases[Rng() % 5], T));
    } else if (R < 17) {
      C.addX(T);
    } else if (R == 17 && Resets > 0) {
      --Resets;
      if (Resets % 2) {
        C.addH(T);
      } else {
        Qubit A = otherQubit(T), B = otherQubit(T);
        if (B == A)
          B = (B + 1) % NumQubits == T ? (B + 2) % NumQubits
                                       : (B + 1) % NumQubits;
        C.addX(T, {A, B});
      }
    } else if (!C.Gates.empty()) {
      // Repeat the previous gate: a doubled phase merges at once; a
      // doubled CNOT restores an earlier parity for later phases.
      C.Gates.push_back(C.Gates.back());
    }
  }
  return C;
}

/// Simulation-backed equivalence (the same oracle the interchange
/// round-trip job uses). The 1024-state budget exceeds the 6-qubit
/// state space, so every fuzz comparison is exhaustive — on the
/// bit-sliced backend for X-only pairs, on the sparse state vector
/// otherwise — and CrossCheck replays one lane per block through
/// sim::runBasis to keep the two backends honest against each other.
void expectEquivalent(const Circuit &A, const Circuit &B, uint64_t Seed,
                      const char *What) {
  interchange::EquivalenceOptions Opts;
  Opts.Samples = 1024;
  Opts.Seed = Seed;
  Opts.CrossCheck = true;
  interchange::EquivalenceReport Report =
      interchange::checkEquivalence(A, B, Opts);
  EXPECT_TRUE(Report.Equivalent)
      << What << " diverged (seed " << Seed << "): " << Report.Detail;
  EXPECT_TRUE(Report.Exhaustive)
      << What << ": 1024-state budget must cover the 6-qubit space";
}

/// Stage-boundary verification, fuzz edition: every pass output must
/// uphold the gate/netlist invariants the pipeline's --verify-each mode
/// enforces on real compiles.
void expectVerified(const Circuit &C, uint64_t Seed, const char *What) {
  analysis::VerifyReport V = analysis::verifyCircuit(C);
  EXPECT_TRUE(V.ok()) << What << " (seed " << Seed << "):\n" << V.str();
}

/// Parity differential: an optimizer pass preserves semantics, so
/// wherever the affine-parity analysis is exact on BOTH the original
/// and the optimized circuit, the exit parities must agree wire for
/// wire. ("?" on either side means the wire left the affine fragment
/// there — nothing to compare.)
void expectSameParities(const Circuit &Before, const Circuit &After,
                        uint64_t Seed, const char *What) {
  ASSERT_EQ(Before.NumQubits, After.NumQubits);
  analysis::CleanSpec Spec = analysis::CleanSpec::allUnknown(Before.NumQubits);
  analysis::ParityResult A = analysis::analyzeParity(Before, Spec);
  analysis::ParityResult B = analysis::analyzeParity(After, Spec);
  for (unsigned Q = 0; Q != Before.NumQubits; ++Q) {
    if (A.WireParity[Q] == "?" || B.WireParity[Q] == "?")
      continue;
    EXPECT_EQ(A.WireParity[Q], B.WireParity[Q])
        << What << " changed the exit parity of wire " << Q << " (seed "
        << Seed << ")";
  }
}

class QoptDifferential : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(QoptDifferential, CancelPlusFoldMatchesReferencePath) {
  const uint64_t Seed = GetParam();
  Circuit C = randomCliffordT(Seed, 6, 40, /*MaxH=*/6);

  qopt::OptStats Stats;
  Circuit NewCancelled =
      qopt::cancelAdjacentGates(C, qopt::CancelOptions::standard(), &Stats);
  Circuit NewOut = qopt::phaseFold(NewCancelled, &Stats);

  Circuit RefCancelled =
      qopt::cancelAdjacentGatesReference(C, qopt::CancelOptions::standard());
  Circuit RefOut = qopt::phaseFoldReference(RefCancelled);

  // Every intermediate artifact passes the static verifier, and the
  // affine-parity summaries survive each pass unchanged wherever they
  // are exact (the static cousin of the simulation oracle below).
  expectVerified(NewCancelled, Seed, "cancel output");
  expectVerified(NewOut, Seed, "fold output");
  expectVerified(RefCancelled, Seed, "reference cancel output");
  expectVerified(RefOut, Seed, "reference fold output");
  expectSameParities(C, NewCancelled, Seed, "cancel");
  expectSameParities(C, NewOut, Seed, "cancel+fold");

  // Both paths must preserve the circuit's behavior...
  expectEquivalent(C, NewOut, Seed * 7 + 1, "netlist path");
  expectEquivalent(C, RefOut, Seed * 7 + 2, "reference path");
  // ...and the worklist fixpoint must never be weaker than the
  // round-limited reference fixpoint.
  EXPECT_LE(NewCancelled.Gates.size(), RefCancelled.Gates.size())
      << "seed " << Seed;
  EXPECT_LE(countGates(NewOut).TComplexity,
            countGates(RefOut).TComplexity)
      << "seed " << Seed;
  // The stats must account exactly for the removed gates.
  EXPECT_EQ(C.Gates.size() - NewCancelled.Gates.size(),
            static_cast<size_t>(2 * Stats.CancelledPairs))
      << "seed " << Seed;
  // Counter non-regression against the reference pass: the worklist
  // fixpoint must log at least as much cancellation work as the
  // reference fixpoint actually removed, from at least one pass, with
  // at least one worklist visit per cancelled pair. These pin the
  // counters' meaning now that OptStats cells are relaxed atomics
  // (obs::AtomicCounter) — a racy or dropped update would show up as a
  // shortfall somewhere in the 100-seed sweep.
  EXPECT_GE(static_cast<size_t>(2 * Stats.CancelledPairs),
            C.Gates.size() - RefCancelled.Gates.size())
      << "seed " << Seed << ": worklist logged less cancellation work "
      << "than the reference pass achieved";
  EXPECT_GE(Stats.CancelPasses.value(), 1) << "seed " << Seed;
  EXPECT_GE(Stats.WorklistVisits.value(), Stats.CancelledPairs.value())
      << "seed " << Seed;
  EXPECT_GE(Stats.MergedRotations.value(), 0) << "seed " << Seed;
}

TEST_P(QoptDifferential, ExhaustiveCancelMatchesReferenceExactly) {
  const uint64_t Seed = GetParam() * 31 + 5;
  // X-only circuits (no H, no phases): cancellation is the whole story
  // and both implementations reach the same true fixpoint size.
  Circuit C = randomCliffordT(Seed, 6, 30, /*MaxH=*/0);
  Circuit XOnly;
  XOnly.NumQubits = C.NumQubits;
  for (const Gate &G : C.Gates)
    if (G.Kind == GateKind::X)
      XOnly.Gates.push_back(G);

  Circuit New =
      qopt::cancelAdjacentGates(XOnly, qopt::CancelOptions::exhaustive());
  Circuit Ref = qopt::cancelAdjacentGatesReference(
      XOnly, qopt::CancelOptions::exhaustive());
  EXPECT_EQ(New.Gates.size(), Ref.Gates.size()) << "seed " << Seed;
  expectEquivalent(XOnly, New, Seed, "exhaustive netlist path");

  // X-only pair at 6 qubits: the dispatch must pick the bit-sliced
  // backend and prove equivalence over all 64 basis states.
  interchange::EquivalenceReport R = interchange::checkEquivalence(
      XOnly, New, interchange::EquivalenceOptions());
  EXPECT_TRUE(R.Equivalent) << R.Detail;
  EXPECT_TRUE(R.BitSliced);
  EXPECT_TRUE(R.Exhaustive);
  EXPECT_EQ(R.StatesRun, 64u) << "seed " << Seed;
}

TEST_P(QoptDifferential, BitSlicedLanesAgreeWithInterpreter) {
  // Lane-agreement oracle: compile a random X-only circuit to the
  // bit-sliced tape, run one 64-state counter block, then replay every
  // one of the 64 lanes through the gate-at-a-time interpreter
  // (sim::runBasis) and compare wire for wire. Any tape mis-compile —
  // wrong control polarity, bad swap fusion, mis-ordered MCX
  // accumulator — shows up as a named bit position here.
  const uint64_t Seed = GetParam() * 17 + 9;
  Circuit C = randomCliffordT(Seed, 6, 30, /*MaxH=*/0);
  Circuit XOnly;
  XOnly.NumQubits = C.NumQubits;
  for (const Gate &G : C.Gates)
    if (G.Kind == GateKind::X)
      XOnly.Gates.push_back(G);

  std::optional<sim::BitSlicedSimulator> Tape =
      sim::BitSlicedSimulator::compile(XOnly);
  ASSERT_TRUE(Tape.has_value());
  EXPECT_EQ(Tape->numGates(), XOnly.Gates.size());

  uint64_t In[6], Out[6];
  sim::loadCounterBlock(In, XOnly.NumQubits, /*Base=*/0, XOnly.NumQubits);
  std::copy(In, In + XOnly.NumQubits, Out);
  Tape->runBlock(Out);
  for (unsigned Bit = 0; Bit != sim::LaneBits; ++Bit)
    EXPECT_TRUE(sim::laneAgreesWithBasis(XOnly, In, Out, Bit))
        << "seed " << Seed << " lane bit " << Bit;
}

TEST_P(QoptDifferential, PhaseFoldAloneMatchesReferenceGateForGate) {
  const uint64_t Seed = GetParam() * 13 + 3;
  Circuit C = randomCliffordT(Seed, 6, 40, /*MaxH=*/6);
  Circuit New = qopt::phaseFold(C);
  Circuit Ref = qopt::phaseFoldReference(C);
  // Folding is deterministic re-emission at first-contribution sites:
  // the hashed parity table must not change the output at all.
  ASSERT_EQ(New.Gates.size(), Ref.Gates.size()) << "seed " << Seed;
  for (size_t I = 0; I != New.Gates.size(); ++I)
    ASSERT_TRUE(New.Gates[I] == Ref.Gates[I])
        << "seed " << Seed << " gate " << I;
}

TEST(QoptFoldScale, LargeCircuitMatchesReferenceGateForGate) {
  // 200k gates on 24 wires: the 40-gate fuzz circuits above never grow
  // the phase table past its first 64 slots; this one doubles it to
  // over 100K slots, rehashing every accumulator each time. 24 wires
  // plus 40 resets stay within the support cap of 64.
  Circuit C = randomParityCircuit(/*Seed=*/7, 24, 200000, /*MaxResets=*/40);
  qopt::OptStats Stats;
  Circuit New = qopt::phaseFold(C, &Stats);
  Circuit Ref = qopt::phaseFoldReference(C);

  int64_t PhaseGatesIn = 0;
  for (const Gate &G : C.Gates)
    PhaseGatesIn += G.isPhase() ? 1 : 0;
  // Each emission site is a distinct parity with a non-zero rotation.
  int64_t Sites = PhaseGatesIn - Stats.MergedRotations;
  EXPECT_GE(Sites, 50000) << "too few distinct parities to grow the table";
  EXPECT_GT(Stats.MergedRotations.value(), 0);

  ASSERT_EQ(New.Gates.size(), Ref.Gates.size());
  for (size_t I = 0; I != New.Gates.size(); ++I)
    ASSERT_TRUE(New.Gates[I] == Ref.Gates[I]) << "gate " << I;
  int64_t PhaseGatesOut = 0;
  for (const Gate &G : New.Gates)
    PhaseGatesOut += G.isPhase() ? 1 : 0;
  EXPECT_EQ(Stats.EmittedRotations.value(), PhaseGatesOut);
}

TEST(QoptFoldScale, AllocationsDependOnQubitsNotGates) {
  // Folding 10x more gates on the same wires must not allocate more
  // than a per-wire budget: wire parities edit in place, and the table,
  // arena and accumulators grow by doubling.
  constexpr unsigned Qubits = 32;
  const int64_t Budget = 8 * Qubits + 64;
  for (size_t Gates : {20000, 200000}) {
    Circuit C = randomParityCircuit(/*Seed=*/11, Qubits, Gates,
                                    /*MaxResets=*/32);
    int64_t Before = support::allocationCount();
    Circuit Out = qopt::phaseFold(C);
    int64_t Allocs = support::allocationCount() - Before;
    EXPECT_LE(Allocs, Budget) << Gates << " gates";
    EXPECT_FALSE(Out.Gates.empty());
  }
}

// >= 100 seeded circuits per differential property.
INSTANTIATE_TEST_SUITE_P(Seeds, QoptDifferential,
                         ::testing::Range<uint64_t>(1000, 1100));

TEST(QoptDifferentialBenchmarks, NetlistPathNeverWorseOnAllPaperBenchmarks) {
  // The PR-4 acceptance bar: across all 11 paper benchmarks, the
  // netlist passes must match or beat the pre-refactor passes at every
  // optimizer level (identical pass semantics were fuzzed above; here
  // the compiled circuits exercise the real gate mix).
  for (const benchmarks::BenchmarkProgram &B : benchmarks::allBenchmarks()) {
    driver::PipelineOptions Opts;
    Opts.BuildCircuit = true;
    Opts.AnalyzeCost = false;
    driver::CompilationResult R = benchmarks::runPipelineOrDie(B, 2, Opts);
    const Circuit &MCX = R.Compiled->Circ;
    Circuit Toff = spire::decompose::toToffoli(MCX);

    // The exhaustive configuration is covered by the fuzz suite above;
    // its reference implementation is quadratic on circuits this size,
    // which would dominate the whole test suite's runtime.
    for (const qopt::CancelOptions &Options :
         {qopt::CancelOptions::standard(),
          qopt::CancelOptions::peephole()}) {
      Circuit New = qopt::cancelAdjacentGates(Toff, Options);
      Circuit Ref = qopt::cancelAdjacentGatesReference(Toff, Options);
      EXPECT_LE(New.Gates.size(), Ref.Gates.size()) << B.Name;
      EXPECT_LE(countGates(New).TComplexity, countGates(Ref).TComplexity)
          << B.Name;
    }

    // Fold comparison at the Clifford+T level. The two qRAM giants
    // (insert, contains) decompose past a million gates at this size;
    // the reference fold's ordered parity map makes them dominate the
    // suite's runtime, and fold determinism is already pinned by the
    // 100-seed fuzz above, so bound this leg to the other nine.
    if (Toff.Gates.size() > 50000)
      continue;
    Circuit CT = spire::decompose::toCliffordT(Toff);
    Circuit NewFold = qopt::phaseFold(CT);
    Circuit RefFold = qopt::phaseFoldReference(CT);
    // Folding is deterministic re-emission; the two paths must agree
    // gate for gate on every benchmark.
    ASSERT_EQ(NewFold.Gates.size(), RefFold.Gates.size()) << B.Name;
    for (size_t I = 0; I != NewFold.Gates.size(); ++I)
      ASSERT_TRUE(NewFold.Gates[I] == RefFold.Gates[I])
          << B.Name << " gate " << I;
  }
}
