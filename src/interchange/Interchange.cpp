#include "interchange/Interchange.h"

#include "circuit/QcReader.h"
#include "circuit/QcWriter.h"
#include "interchange/QasmReader.h"
#include "interchange/QasmWriter.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sim/BitSliced.h"
#include "sim/Simulator.h"
#include "support/FaultInjector.h"
#include "support/FileIO.h"
#include "support/Governor.h"
#include "support/Hash.h"

#include <algorithm>
#include <cctype>
#include <chrono>

namespace spire::interchange {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

const char *formatName(Format F) {
  switch (F) {
  case Format::Qc:
    return "qc";
  case Format::Qasm3:
    return "qasm3";
  }
  return "?";
}

std::optional<Format> formatFromName(const std::string &Name) {
  if (Name == "qc")
    return Format::Qc;
  if (Name == "qasm3")
    return Format::Qasm3;
  return std::nullopt;
}

Format detectFormat(std::string_view Text) {
  // Skip whitespace and // comments, then look at the first word. The
  // .qc dialect opens with a .v directive (or BEGIN); QASM with
  // OPENQASM, include, qubit, or a lower-case gate statement.
  size_t Pos = 0;
  auto skip = [&] {
    for (;;) {
      while (Pos < Text.size() &&
             (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\r' ||
              Text[Pos] == '\n'))
        ++Pos;
      if (Pos + 1 < Text.size() && Text[Pos] == '/' && Text[Pos + 1] == '/') {
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
        continue;
      }
      return;
    }
  };
  skip();
  size_t End = Pos;
  while (End < Text.size() &&
         !std::isspace(static_cast<unsigned char>(Text[End])) &&
         Text[End] != ';' && Text[End] != '[')
    ++End;
  std::string_view First = Text.substr(Pos, End - Pos);
  if (First == "OPENQASM" || First == "include" || First == "qubit")
    return Format::Qasm3;
  return Format::Qc;
}

void writeCircuit(const Circuit &C, Format F,
                  const circuit::CircuitLayout *Layout,
                  support::OutputSink &Out) {
  switch (F) {
  case Format::Qc:
    circuit::writeQc(C, Layout, Out);
    return;
  case Format::Qasm3:
    writeQasm3(C, Layout, Out);
    return;
  }
}

std::string writeCircuit(const Circuit &C, Format F,
                         const circuit::CircuitLayout *Layout) {
  std::string Text;
  support::StringSink Out(Text);
  writeCircuit(C, F, Layout, Out);
  Out.flush();
  return Text;
}

std::optional<Circuit> readCircuit(std::string_view Text, Format F,
                                   support::DiagnosticEngine &Diags) {
  switch (F) {
  case Format::Qc:
    return circuit::readQc(Text, Diags);
  case Format::Qasm3:
    return readQasm3(Text, Diags);
  }
  return std::nullopt;
}

bool isClassical(const Circuit &C) {
  return std::all_of(C.Gates.begin(), C.Gates.end(), [](const Gate &G) {
    return G.Kind == GateKind::X;
  });
}

namespace {

/// Deterministic generator for basis-state sampling (<random> engines
/// are not guaranteed stable across libstdc++ versions, and these
/// samples pin CI behavior).
using support::splitMix64;

/// A random basis state over the first `Qubits` wires of a `Width`-wide
/// register (the ancilla tail stays |0>).
sim::BitString sampleState(unsigned Qubits, unsigned Width,
                           uint64_t &Rng, bool AllZero) {
  sim::BitString S(Width);
  if (AllZero)
    return S;
  for (unsigned Q = 0; Q < Qubits; Q += 64) {
    uint64_t Bits = splitMix64(Rng);
    unsigned Chunk = std::min(64u, Qubits - Q);
    S.write(Q, Chunk, Chunk == 64 ? Bits : (Bits & ((1ull << Chunk) - 1)));
  }
  return S;
}

/// Chooses the I-th test state: when the sample budget covers the whole
/// 2^Qubits space, enumerate it exhaustively (random sampling draws
/// *with replacement*, so on a small space it would re-test duplicates
/// and could miss the one differing state); otherwise sample randomly
/// with the all-zero state always included.
sim::BitString testState(unsigned Qubits, unsigned Width, unsigned Samples,
                         unsigned I, uint64_t &Rng) {
  bool Exhaustive =
      Qubits < 64 && static_cast<uint64_t>(Samples) >= (uint64_t{1} << Qubits);
  if (!Exhaustive)
    return sampleState(Qubits, Width, Rng, I == 0);
  sim::BitString S(Width);
  if (Qubits > 0)
    S.write(0, std::min(Qubits, 64u), I);
  return S;
}

/// True when every qubit in [From, Width) of `S` is zero.
bool tailIsZero(const sim::BitString &S, unsigned From, unsigned Width) {
  for (unsigned Q = From; Q != Width; ++Q)
    if (S.get(Q))
      return false;
  return true;
}

std::string describeState(const sim::BitString &S, unsigned Width) {
  std::string Out;
  for (unsigned Q = 0; Q != Width; ++Q)
    Out += S.get(Q) ? '1' : '0';
  return Out; // Qubit 0 first.
}

std::string describeLaneState(const uint64_t *L, unsigned Width,
                              unsigned Bit) {
  std::string Out;
  for (unsigned Q = 0; Q != Width; ++Q)
    Out += ((L[Q] >> Bit) & 1) ? '1' : '0';
  return Out; // Qubit 0 first.
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// The bit-sliced sweep over an X-only pair: both tapes advance the same
/// 64-state blocks — all 2^Common states when `Exhaustive`, random
/// blocks otherwise (state 0 of the first block pinned to all-zero) —
/// and every block must agree on the common wires with a clean ancilla
/// tail on both sides.
void runBitSlicedSweep(const Circuit &A, const Circuit &B,
                       const sim::BitSlicedSimulator &TapeA,
                       const sim::BitSlicedSimulator &TapeB,
                       unsigned Common, uint64_t Blocks, bool Exhaustive,
                       const EquivalenceOptions &Opts,
                       EquivalenceReport &Report) {
  std::vector<uint64_t> InA(A.NumQubits), LA(A.NumQubits);
  std::vector<uint64_t> InB(B.NumQubits), LB(B.NumQubits);
  uint64_t Rng = Opts.Seed;
  for (uint64_t Block = 0; Block != Blocks; ++Block) {
    // Governor checkpoint per 64-state block: a tripped budget stops
    // the sweep with the report still Equivalent=false/undetailed; the
    // caller checks the governor before trusting any partial verdict.
    if (!support::Governor::poll()) {
      Report.Detail = "equivalence sweep stopped by resource limit";
      return;
    }
    if (Exhaustive)
      sim::loadCounterBlock(InA.data(), A.NumQubits,
                            Block * sim::LaneBits, Common);
    else
      sim::loadRandomBlock(InA.data(), A.NumQubits, Common, Rng);
    if (!Exhaustive && Block == 0)
      for (unsigned Q = 0; Q != A.NumQubits; ++Q)
        InA[Q] &= ~uint64_t(1); // The all-zero state is always tested.
    for (unsigned Q = 0; Q != B.NumQubits; ++Q)
      InB[Q] = Q < Common ? InA[Q] : 0;

    LA = InA;
    LB = InB;
    TapeA.runBlock(LA.data());
    TapeB.runBlock(LB.data());

    // One diff word accumulates every way the block can disagree:
    // common-wire divergence and dirty ancilla tails on either side.
    uint64_t Diff = 0;
    for (unsigned Q = 0; Q != Common; ++Q)
      Diff |= LA[Q] ^ LB[Q];
    for (unsigned Q = Common; Q != A.NumQubits; ++Q)
      Diff |= LA[Q];
    for (unsigned Q = Common; Q != B.NumQubits; ++Q)
      Diff |= LB[Q];
    if (Diff != 0) {
      unsigned Bit = 0;
      while (!((Diff >> Bit) & 1))
        ++Bit;
      Report.Detail = "basis state " +
                      describeLaneState(InA.data(), Common, Bit) +
                      " maps to " +
                      describeLaneState(LA.data(), A.NumQubits, Bit) +
                      " vs " +
                      describeLaneState(LB.data(), B.NumQubits, Bit);
      return;
    }

    if (Opts.CrossCheck) {
      // Lane-agreement oracle: replay one state of the block through
      // the gate-at-a-time interpreter and require the bit-sliced lanes
      // to match wire-for-wire on both circuits.
      unsigned Bit =
          static_cast<unsigned>(splitMix64(Rng) % sim::LaneBits);
      if (!sim::laneAgreesWithBasis(A, InA.data(), LA.data(), Bit) ||
          !sim::laneAgreesWithBasis(B, InB.data(), LB.data(), Bit)) {
        Report.Detail = "bit-sliced backend disagrees with sim::runBasis "
                        "on basis state " +
                        describeLaneState(InA.data(), Common, Bit);
        return;
      }
    }
  }
  Report.Equivalent = true;
}

} // namespace

EquivalenceReport checkEquivalence(const Circuit &A, const Circuit &B,
                                   const EquivalenceOptions &Opts) {
  support::faultAlloc("equiv/check");
  EquivalenceReport Report;
  auto Start = std::chrono::steady_clock::now();
  // Sweep over the narrower circuit's wires; the wider one's extra
  // wires are legalization ancillas and must stay clean.
  unsigned Common = std::min(A.NumQubits, B.NumQubits);
  // A budget covering the whole space means exhaustive enumeration; cap
  // it there too, so no caller burns simulations on duplicate states or
  // reads a StatesRun above the number of distinct states that exist.
  uint64_t Space =
      Common < 64 ? (uint64_t{1} << Common) : ~uint64_t(0);
  unsigned Samples = Opts.Samples;
  if (static_cast<uint64_t>(Samples) > Space)
    Samples = static_cast<unsigned>(Space);
  uint64_t Rng = Opts.Seed;

  ++obs::Registry::global().counter("equiv.checks");

  if (isClassical(A) && isClassical(B)) {
    std::optional<sim::BitSlicedSimulator> TapeA;
    std::optional<sim::BitSlicedSimulator> TapeB;
    {
      obs::Span Sp("equiv/compile-tape");
      TapeA = sim::BitSlicedSimulator::compile(A);
      TapeB = sim::BitSlicedSimulator::compile(B);
      Sp.arg("gates", static_cast<int64_t>(A.Gates.size() +
                                           B.Gates.size()));
    }
    Report.BitSliced = true;
    // Exhaustive whenever the whole space is small enough — or the
    // caller's budget covers it anyway.
    bool Exhaustive = Common <= ExhaustiveQubitLimit ||
                      static_cast<uint64_t>(Opts.Samples) >= Space;
    // Whole 64-state blocks: every sweep advances at least 64 states
    // (one sample costs the same as 64 on this backend). An exhaustive
    // space below 64 states still occupies one block — the counter
    // lanes just repeat, and StatesRun reports distinct states.
    uint64_t Blocks =
        Exhaustive
            ? std::max<uint64_t>(1, Space / sim::LaneBits)
            : (std::max(Samples, 1u) + sim::LaneBits - 1) / sim::LaneBits;
    {
      obs::Span Sp("equiv/sweep");
      runBitSlicedSweep(A, B, *TapeA, *TapeB, Common, Blocks, Exhaustive,
                        Opts, Report);
      Report.Exhaustive = Exhaustive;
      Report.StatesRun = Exhaustive ? Space : Blocks * sim::LaneBits;
      Sp.arg("common_qubits", Common);
      Sp.arg("blocks", static_cast<int64_t>(Blocks));
      Sp.arg("states_run", static_cast<int64_t>(Report.StatesRun));
      Sp.arg("exhaustive", Exhaustive);
    }
    auto &Reg = obs::Registry::global();
    Reg.counter("sim.bitsliced.states_run") +=
        static_cast<int64_t>(Report.StatesRun);
    Reg.counter("sim.bitsliced.blocks_run") += static_cast<int64_t>(Blocks);
    if (Exhaustive)
      ++Reg.counter("equiv.exhaustive_sweeps");
    Report.Seconds = secondsSince(Start);
    return Report;
  }

  // State-vector path for circuits with H or phase gates: exact up to
  // global phase, but exponential in superposition size — callers keep
  // these circuits small (decomposition tests, --check-equiv on toys).
  Report.Exhaustive = static_cast<uint64_t>(Samples) >= Space;
  obs::Span Sp("equiv/state-vector");
  auto noteSamples = [&] {
    Sp.arg("samples_run", static_cast<int64_t>(Report.StatesRun));
    obs::Registry::global().counter("sim.statevector.samples_run") +=
        static_cast<int64_t>(Report.StatesRun);
  };
  for (unsigned I = 0; I != Samples; ++I) {
    sim::BitString SA = testState(Common, A.NumQubits, Samples, I, Rng);
    sim::BitString SB(B.NumQubits);
    for (unsigned Q = 0; Q != Common; ++Q)
      SB.set(Q, SA.get(Q));
    sim::SparseState FA = sim::runState(A, SA);
    sim::SparseState FB = sim::runState(B, SB);
    ++Report.StatesRun;
    // Project the wider state onto the common wires, insisting the
    // ancilla tail is exactly |0> in every branch.
    auto project = [&](const sim::SparseState &S, unsigned Width,
                       sim::SparseState &Out) {
      for (const auto &[Basis, Amp] : S) {
        if (!tailIsZero(Basis, Common, Width))
          return false;
        sim::BitString Narrow(Common);
        for (unsigned Q = 0; Q != Common; ++Q)
          Narrow.set(Q, Basis.get(Q));
        Out[Narrow] += Amp;
      }
      return true;
    };
    sim::SparseState PA, PB;
    bool Match = project(FA, A.NumQubits, PA) &&
                 project(FB, B.NumQubits, PB) &&
                 sim::statesEquivalent(PA, PB);
    if (!Match) {
      Report.Detail = "states diverge from basis state " +
                      describeState(SA, Common);
      Report.Seconds = secondsSince(Start);
      noteSamples();
      return Report;
    }
  }
  Report.Equivalent = true;
  Report.Seconds = secondsSince(Start);
  noteSamples();
  return Report;
}

EquivalenceReport checkEquivalence(const Circuit &A, const Circuit &B,
                                   unsigned Samples, uint64_t Seed) {
  EquivalenceOptions Opts;
  Opts.Samples = Samples;
  Opts.Seed = Seed;
  return checkEquivalence(A, B, Opts);
}

} // namespace spire::interchange
