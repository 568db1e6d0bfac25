//===----------------------------------------------------------------------===//
// Unit tests for the interchange subsystem: the OpenQASM 3 writer's
// spellings, the reader's accepted subset and error paths, gate-set
// legalization, format detection/dispatch, and the simulation-backed
// equivalence oracle.
//===----------------------------------------------------------------------===//

#include "interchange/Interchange.h"
#include "interchange/QasmReader.h"
#include "interchange/QasmWriter.h"

#include "decompose/Decompose.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace spire;
using namespace spire::circuit;
using namespace spire::interchange;

namespace {

std::optional<Circuit> parse(const std::string &Text,
                             std::string *ErrorsOut = nullptr) {
  support::DiagnosticEngine Diags;
  std::optional<Circuit> C = readQasm3(Text, Diags);
  if (ErrorsOut)
    *ErrorsOut = Diags.str();
  return C;
}

/// Structural circuit equality.
void expectSameCircuit(const Circuit &A, const Circuit &B) {
  EXPECT_EQ(A.NumQubits, B.NumQubits);
  ASSERT_EQ(A.Gates.size(), B.Gates.size());
  for (size_t I = 0; I != A.Gates.size(); ++I)
    EXPECT_TRUE(A.Gates[I] == B.Gates[I]) << "gate " << I;
}

} // namespace

//===----------------------------------------------------------------------===//
// Writer spellings
//===----------------------------------------------------------------------===//

TEST(QasmWriter, HeaderAndRegister) {
  Circuit C;
  C.NumQubits = 3;
  std::string Text = writeQasm3(C);
  EXPECT_NE(Text.find("OPENQASM 3.0;"), std::string::npos);
  EXPECT_NE(Text.find("include \"stdgates.inc\";"), std::string::npos);
  EXPECT_NE(Text.find("qubit[3] q;"), std::string::npos);
}

TEST(QasmWriter, EmptyCircuitHasNoRegister) {
  Circuit C;
  EXPECT_EQ(writeQasm3(C).find("qubit"), std::string::npos);
}

TEST(QasmWriter, CoversEveryGateKind) {
  Circuit C;
  C.NumQubits = 5;
  C.addX(0);
  C.addX(1, {0});
  C.addX(2, {0, 1});
  C.addX(4, {0, 1, 2, 3});
  C.addH(0);
  C.addH(1, {0});
  C.Gates.push_back(Gate(GateKind::Z, 0));
  C.Gates.push_back(Gate(GateKind::Z, 1, {0}));
  C.Gates.push_back(Gate(GateKind::S, 2));
  C.Gates.push_back(Gate(GateKind::Sdg, 2));
  C.Gates.push_back(Gate(GateKind::T, 3));
  C.Gates.push_back(Gate(GateKind::Tdg, 3));
  std::string Text = writeQasm3(C);
  EXPECT_NE(Text.find("x q[0];"), std::string::npos) << Text;
  EXPECT_NE(Text.find("cx q[0], q[1];"), std::string::npos) << Text;
  EXPECT_NE(Text.find("ccx q[0], q[1], q[2];"), std::string::npos) << Text;
  EXPECT_NE(Text.find("ctrl(4) @ x q[0], q[1], q[2], q[3], q[4];"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("h q[0];"), std::string::npos) << Text;
  EXPECT_NE(Text.find("ch q[0], q[1];"), std::string::npos) << Text;
  EXPECT_NE(Text.find("z q[0];"), std::string::npos) << Text;
  EXPECT_NE(Text.find("cz q[0], q[1];"), std::string::npos) << Text;
  EXPECT_NE(Text.find("s q[2];"), std::string::npos) << Text;
  EXPECT_NE(Text.find("sdg q[2];"), std::string::npos) << Text;
  EXPECT_NE(Text.find("t q[3];"), std::string::npos) << Text;
  EXPECT_NE(Text.find("tdg q[3];"), std::string::npos) << Text;
}

TEST(QasmWriter, LayoutBecomesComments) {
  Circuit C;
  C.NumQubits = 6;
  CircuitLayout Layout;
  Layout.Inputs["a"] = {0, 2};
  Layout.Output = {4, 2};
  std::string Text = writeQasm3(C, &Layout);
  EXPECT_NE(Text.find("// input a: q[0..1]"), std::string::npos) << Text;
  EXPECT_NE(Text.find("// output: q[4..5]"), std::string::npos) << Text;
}

//===----------------------------------------------------------------------===//
// Reader: accepted subset
//===----------------------------------------------------------------------===//

TEST(QasmReader, ReadsWriterOutputBack) {
  Circuit C;
  C.NumQubits = 5;
  C.addX(0);
  C.addX(1, {0});
  C.addX(2, {0, 1});
  C.addX(4, {0, 1, 2, 3});
  C.addH(0);
  C.addH(1, {0});
  C.Gates.push_back(Gate(GateKind::Z, 1, {0}));
  C.Gates.push_back(Gate(GateKind::Sdg, 2));
  C.Gates.push_back(Gate(GateKind::T, 3));
  std::optional<Circuit> Back = parse(writeQasm3(C));
  ASSERT_TRUE(Back.has_value());
  expectSameCircuit(*Back, C);
}

TEST(QasmReader, WriterOutputIsAFixpoint) {
  Circuit C;
  C.NumQubits = 4;
  C.addX(3, {0, 1, 2});
  C.addH(2, {0, 1}); // ctrl(2) @ h spelling.
  C.Gates.push_back(Gate(GateKind::Z, 2, {0, 1}));
  std::string Once = writeQasm3(C);
  std::optional<Circuit> Back = parse(Once);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(writeQasm3(*Back), Once);
}

TEST(QasmReader, AcceptsVersionlessAndBareVersion) {
  EXPECT_TRUE(parse("qubit[1] q; x q[0];").has_value());
  EXPECT_TRUE(parse("OPENQASM 3; qubit[1] q; x q[0];").has_value());
}

TEST(QasmReader, FlattensMultipleRegisters) {
  std::optional<Circuit> C =
      parse("OPENQASM 3.0;\nqubit[2] a;\nqubit[3] b;\ncx a[1], b[2];\n");
  ASSERT_TRUE(C.has_value());
  EXPECT_EQ(C->NumQubits, 5u);
  ASSERT_EQ(C->Gates.size(), 1u);
  EXPECT_EQ(C->Gates[0].Target, 4u);
  EXPECT_EQ(C->Gates[0].Controls, std::vector<Qubit>{1});
}

TEST(QasmReader, BareNameAddressesWidthOneRegister) {
  std::optional<Circuit> C = parse("qubit a; qubit[2] b; cx a, b[0];");
  ASSERT_TRUE(C.has_value());
  ASSERT_EQ(C->Gates.size(), 1u);
  EXPECT_EQ(C->Gates[0].Controls, std::vector<Qubit>{0});
}

TEST(QasmReader, CtrlModifiersCompose) {
  // ctrl @ ctrl(2) @ x: three modifier controls in operand order.
  std::optional<Circuit> C =
      parse("qubit[4] q; ctrl @ ctrl(2) @ x q[0], q[1], q[2], q[3];");
  ASSERT_TRUE(C.has_value());
  ASSERT_EQ(C->Gates.size(), 1u);
  EXPECT_EQ(C->Gates[0].numControls(), 3u);
  EXPECT_EQ(C->Gates[0].Target, 3u);
}

TEST(QasmReader, CtrlModifierOnAliasPrepends) {
  // ctrl @ cx a, b, c: a from the modifier, b from the alias.
  std::optional<Circuit> C =
      parse("qubit[3] q; ctrl @ cx q[0], q[1], q[2];");
  ASSERT_TRUE(C.has_value());
  ASSERT_EQ(C->Gates.size(), 1u);
  EXPECT_EQ(C->Gates[0].Kind, GateKind::X);
  EXPECT_EQ(C->Gates[0].numControls(), 2u);
  EXPECT_EQ(C->Gates[0].Target, 2u);
}

TEST(QasmReader, InvModifierFlipsPhases) {
  std::optional<Circuit> C =
      parse("qubit[1] q; inv @ s q[0]; inv @ tdg q[0]; inv @ inv @ t q[0];");
  ASSERT_TRUE(C.has_value());
  ASSERT_EQ(C->Gates.size(), 3u);
  EXPECT_EQ(C->Gates[0].Kind, GateKind::Sdg);
  EXPECT_EQ(C->Gates[1].Kind, GateKind::T);
  EXPECT_EQ(C->Gates[2].Kind, GateKind::T);
}

TEST(QasmReader, SwapLowersToThreeCNOTs) {
  std::optional<Circuit> C = parse("qubit[2] q; swap q[0], q[1];");
  ASSERT_TRUE(C.has_value());
  ASSERT_EQ(C->Gates.size(), 3u);
  for (const Gate &G : C->Gates)
    EXPECT_TRUE(G.isCNOT());
  // Behavior: |01> -> |10>.
  sim::BitString S(2);
  S.set(0, true);
  sim::runBasis(*C, S);
  EXPECT_FALSE(S.get(0));
  EXPECT_TRUE(S.get(1));
}

TEST(QasmReader, CswapIsFredkin) {
  std::optional<Circuit> C = parse("qubit[3] q; cswap q[0], q[1], q[2];");
  ASSERT_TRUE(C.has_value());
  // Control off: no change; control on: swap.
  sim::BitString Off(3);
  Off.set(1, true);
  sim::runBasis(*C, Off);
  EXPECT_TRUE(Off.get(1));
  EXPECT_FALSE(Off.get(2));
  sim::BitString On(3);
  On.set(0, true);
  On.set(1, true);
  sim::runBasis(*C, On);
  EXPECT_TRUE(On.get(0));
  EXPECT_FALSE(On.get(1));
  EXPECT_TRUE(On.get(2));
}

TEST(QasmReader, ControlledSwapUnderModifier) {
  std::optional<Circuit> A =
      parse("qubit[3] q; ctrl @ swap q[0], q[1], q[2];");
  std::optional<Circuit> B = parse("qubit[3] q; cswap q[0], q[1], q[2];");
  ASSERT_TRUE(A.has_value() && B.has_value());
  expectSameCircuit(*A, *B);
}

TEST(QasmReader, CommentsAndWhitespaceAreTrivia) {
  std::optional<Circuit> C = parse("// leading\nOPENQASM 3.0;\n"
                                   "/* block\n comment */ qubit[1] q;\n"
                                   "x q[0]; // trailing\n");
  ASSERT_TRUE(C.has_value());
  EXPECT_EQ(C->Gates.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Reader: error paths
//===----------------------------------------------------------------------===//

TEST(QasmReaderErrors, RejectsWrongVersion) {
  std::string Errors;
  EXPECT_FALSE(parse("OPENQASM 2.0;\nqubit[1] q;\n", &Errors));
  EXPECT_NE(Errors.find("accepts 3.x"), std::string::npos) << Errors;
}

TEST(QasmReaderErrors, RejectsUnknownGate) {
  std::string Errors;
  EXPECT_FALSE(parse("qubit[1] q; frobnicate q[0];", &Errors));
  EXPECT_NE(Errors.find("unknown or unsupported gate"), std::string::npos)
      << Errors;
}

TEST(QasmReaderErrors, RejectsUnknownRegister) {
  std::string Errors;
  EXPECT_FALSE(parse("qubit[1] q; x r[0];", &Errors));
  EXPECT_NE(Errors.find("unknown register 'r'"), std::string::npos)
      << Errors;
}

TEST(QasmReaderErrors, RejectsIndexOutOfRange) {
  std::string Errors;
  EXPECT_FALSE(parse("qubit[2] q; x q[2];", &Errors));
  EXPECT_NE(Errors.find("out of range"), std::string::npos) << Errors;
}

TEST(QasmReaderErrors, RejectsBroadcast) {
  std::string Errors;
  EXPECT_FALSE(parse("qubit[2] q; x q;", &Errors));
  EXPECT_NE(Errors.find("broadcast"), std::string::npos) << Errors;
}

TEST(QasmReaderErrors, RejectsOperandCountMismatch) {
  std::string Errors;
  EXPECT_FALSE(parse("qubit[3] q; cx q[0], q[1], q[2];", &Errors));
  EXPECT_NE(Errors.find("expects 2 operands"), std::string::npos) << Errors;
}

TEST(QasmReaderErrors, RejectsDuplicateOperands) {
  std::string Errors;
  EXPECT_FALSE(parse("qubit[2] q; cx q[0], q[0];", &Errors));
  EXPECT_NE(Errors.find("repeats a control"), std::string::npos) << Errors;
}

TEST(QasmReader, DedupesDuplicateControls) {
  // A doubled control is the same single control: ccx with a repeated
  // control reads as the CNOT (Gate::normalize dedupes); only the target
  // repeating a control is an error.
  std::optional<Circuit> C = parse("qubit[3] q; ccx q[1], q[1], q[0];");
  ASSERT_TRUE(C.has_value());
  ASSERT_EQ(C->Gates.size(), 1u);
  EXPECT_EQ(C->Gates[0].Target, 0u);
  EXPECT_EQ(C->Gates[0].Controls, std::vector<Qubit>{1});

  std::string Errors;
  EXPECT_FALSE(parse("qubit[3] q; ccx q[1], q[2], q[2];", &Errors));
  EXPECT_NE(Errors.find("repeats a control"), std::string::npos) << Errors;
}

TEST(QasmReaderErrors, RejectsOutOfSubsetStatements) {
  std::string Errors;
  EXPECT_FALSE(parse("qubit[1] q; bit c; measure q[0];", &Errors));
  EXPECT_NE(Errors.find("outside the supported OpenQASM subset"),
            std::string::npos)
      << Errors;
}

TEST(QasmReaderErrors, RejectsNegctrl) {
  std::string Errors;
  EXPECT_FALSE(parse("qubit[2] q; negctrl @ x q[0], q[1];", &Errors));
  EXPECT_NE(Errors.find("negctrl"), std::string::npos) << Errors;
}

TEST(QasmReaderErrors, RejectsMissingSemicolon) {
  std::string Errors;
  EXPECT_FALSE(parse("qubit[1] q\nx q[0];", &Errors));
  EXPECT_NE(Errors.find("expected ';'"), std::string::npos) << Errors;
}

TEST(QasmReaderErrors, RejectsUnterminatedBlockComment) {
  std::string Errors;
  EXPECT_FALSE(parse("qubit[1] q; /* open\n x q[0];", &Errors));
  EXPECT_NE(Errors.find("unterminated block comment"), std::string::npos)
      << Errors;
}

TEST(QasmReaderErrors, RejectsDuplicateRegister) {
  std::string Errors;
  EXPECT_FALSE(parse("qubit[1] q; qubit[2] q;", &Errors));
  EXPECT_NE(Errors.find("duplicate register"), std::string::npos) << Errors;
}

TEST(QasmReaderErrors, DiagnosticsCarryPositions) {
  std::string Errors;
  EXPECT_FALSE(parse("OPENQASM 3.0;\nqubit[1] q;\nfrobnicate q[0];\n",
                     &Errors));
  EXPECT_NE(Errors.find("3:1"), std::string::npos) << Errors;
}

//===----------------------------------------------------------------------===//
// Legalization
//===----------------------------------------------------------------------===//

namespace {

/// A small MCX-level circuit with every control shape the compiler emits.
Circuit mcxSample() {
  Circuit C;
  C.NumQubits = 6;
  C.addX(5, {0, 1, 2, 3});
  C.addX(4, {0});
  C.addH(3);
  C.addH(2, {0, 1});
  C.addX(1);
  return C;
}

} // namespace

TEST(Legalize, BasisNamesRoundTrip) {
  for (Basis B : {Basis::MCX, Basis::Toffoli, Basis::CX})
    EXPECT_EQ(basisFromName(basisName(B)), B);
  EXPECT_FALSE(basisFromName("qft").has_value());
}

TEST(Legalize, MCXBasisIsIdentity) {
  support::DiagnosticEngine Diags;
  Circuit C = mcxSample();
  std::optional<Circuit> L = legalize(C, Basis::MCX, Diags);
  ASSERT_TRUE(L.has_value());
  expectSameCircuit(*L, C);
}

TEST(Legalize, ToffoliBasisBoundsControls) {
  support::DiagnosticEngine Diags;
  std::optional<Circuit> L = legalize(mcxSample(), Basis::Toffoli, Diags);
  ASSERT_TRUE(L.has_value());
  EXPECT_TRUE(conformsTo(*L, Basis::Toffoli));
  EXPECT_FALSE(conformsTo(mcxSample(), Basis::Toffoli));
}

TEST(Legalize, CXBasisEliminatesMultiControls) {
  support::DiagnosticEngine Diags;
  std::optional<Circuit> L = legalize(mcxSample(), Basis::CX, Diags);
  ASSERT_TRUE(L.has_value());
  EXPECT_TRUE(conformsTo(*L, Basis::CX));
  for (const Gate &G : L->Gates)
    EXPECT_LE(G.numControls(), 1u);
}

TEST(Legalize, PreservesTComplexity) {
  support::DiagnosticEngine Diags;
  Circuit C = mcxSample();
  std::optional<Circuit> L = legalize(C, Basis::CX, Diags);
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(countGates(*L).TComplexity, countGates(C).TComplexity);
}

TEST(Legalize, IsIdempotent) {
  support::DiagnosticEngine Diags;
  std::optional<Circuit> Once = legalize(mcxSample(), Basis::CX, Diags);
  ASSERT_TRUE(Once.has_value());
  std::optional<Circuit> Twice = legalize(*Once, Basis::CX, Diags);
  ASSERT_TRUE(Twice.has_value());
  expectSameCircuit(*Twice, *Once);
}

TEST(Legalize, MultiControlledZLowersExactly) {
  Circuit C;
  C.NumQubits = 3;
  C.Gates.push_back(Gate(GateKind::Z, 2, {0, 1}));
  support::DiagnosticEngine Diags;
  std::optional<Circuit> L = legalize(C, Basis::CX, Diags);
  ASSERT_TRUE(L.has_value());
  EXPECT_TRUE(conformsTo(*L, Basis::CX));
  EquivalenceReport R = checkEquivalence(C, *L, 8);
  EXPECT_TRUE(R.Equivalent) << R.Detail;
}

TEST(Legalize, ControlledSLowersExactly) {
  for (GateKind K : {GateKind::S, GateKind::Sdg}) {
    Circuit C;
    C.NumQubits = 2;
    C.Gates.push_back(Gate(K, 1, {0}));
    support::DiagnosticEngine Diags;
    std::optional<Circuit> L = legalize(C, Basis::CX, Diags);
    ASSERT_TRUE(L.has_value());
    EXPECT_TRUE(conformsTo(*L, Basis::CX));
    // checkEquivalence samples basis states; a diagonal gate needs
    // superposed inputs to be visible, so drive H-conjugated circuits.
    Circuit CH = C, LH = *L;
    CH.Gates.insert(CH.Gates.begin(), Gate(GateKind::H, 1));
    CH.addH(1);
    LH.Gates.insert(LH.Gates.begin(), Gate(GateKind::H, 1));
    LH.addH(1);
    EquivalenceReport R = checkEquivalence(CH, LH, 4);
    EXPECT_TRUE(R.Equivalent) << R.Detail;
  }
}

TEST(Legalize, ControlledTIsRejectedWithDiagnostic) {
  Circuit C;
  C.NumQubits = 2;
  C.Gates.push_back(Gate(GateKind::T, 1, {0}));
  support::DiagnosticEngine Diags;
  EXPECT_FALSE(legalize(C, Basis::CX, Diags).has_value());
  EXPECT_NE(Diags.str().find("not exactly representable"),
            std::string::npos)
      << Diags.str();
}

//===----------------------------------------------------------------------===//
// Format dispatch and detection
//===----------------------------------------------------------------------===//

TEST(Interchange, FormatNamesRoundTrip) {
  EXPECT_EQ(formatFromName("qc"), Format::Qc);
  EXPECT_EQ(formatFromName("qasm3"), Format::Qasm3);
  EXPECT_FALSE(formatFromName("qasm").has_value());
}

TEST(Interchange, DetectsFormats) {
  EXPECT_EQ(detectFormat(".v q0\nBEGIN\nEND\n"), Format::Qc);
  EXPECT_EQ(detectFormat("OPENQASM 3.0;\n"), Format::Qasm3);
  EXPECT_EQ(detectFormat("// comment\nqubit[2] q;\n"), Format::Qasm3);
  EXPECT_EQ(detectFormat("include \"stdgates.inc\";\n"), Format::Qasm3);
}

TEST(Interchange, CrossFormatRoundTripPreservesCircuit) {
  Circuit C = mcxSample();
  support::DiagnosticEngine Diags;
  std::optional<Circuit> ViaQasm =
      readCircuit(writeCircuit(C, Format::Qasm3), Format::Qasm3, Diags);
  ASSERT_TRUE(ViaQasm.has_value()) << Diags.str();
  std::optional<Circuit> ViaQc =
      readCircuit(writeCircuit(*ViaQasm, Format::Qc), Format::Qc, Diags);
  ASSERT_TRUE(ViaQc.has_value()) << Diags.str();
  expectSameCircuit(*ViaQc, C);
}

//===----------------------------------------------------------------------===//
// Equivalence oracle
//===----------------------------------------------------------------------===//

TEST(Equivalence, AcceptsIdenticalXCircuits) {
  // X-only at 8 qubits: the bit-sliced backend sweeps all 2^8 states
  // regardless of the requested sample budget — a proof, not a sample.
  Circuit C;
  C.NumQubits = 8;
  C.addX(3, {0, 1});
  C.addX(7, {2});
  EquivalenceReport R = checkEquivalence(C, C, 16);
  EXPECT_TRUE(R.Equivalent);
  EXPECT_TRUE(R.Exhaustive);
  EXPECT_TRUE(R.BitSliced);
  EXPECT_EQ(R.StatesRun, 256u);
}

TEST(Equivalence, LargeXCircuitsGetBatchedBlocks) {
  // Above the exhaustive threshold the sweep runs whole 64-state blocks:
  // a 40-qubit comparison with the default budget still covers >= 64
  // states (one interpreter run used to buy exactly one).
  Circuit A;
  A.NumQubits = 40;
  for (unsigned Q = 0; Q + 1 < A.NumQubits; ++Q)
    A.addX(Q + 1, {Q});
  EquivalenceReport R = checkEquivalence(A, A, 32);
  EXPECT_TRUE(R.Equivalent);
  EXPECT_FALSE(R.Exhaustive);
  EXPECT_TRUE(R.BitSliced);
  EXPECT_EQ(R.StatesRun, 64u);

  EquivalenceOptions Opts;
  Opts.Samples = 1000; // Rounds up to 16 blocks.
  EquivalenceReport R2 = checkEquivalence(A, A, Opts);
  EXPECT_TRUE(R2.Equivalent);
  EXPECT_EQ(R2.StatesRun, 1024u);
}

TEST(Equivalence, ExhaustiveSweepCatchesSingleStateDifference) {
  // The two circuits agree everywhere except on the all-ones input —
  // the one state random sampling at small budgets can miss, and the
  // reason exhaustive mode exists. 10 qubits: 1024 states, 16 blocks.
  Circuit A, B;
  A.NumQubits = B.NumQubits = 10;
  ControlList AllButLast;
  for (unsigned Q = 0; Q + 1 < A.NumQubits; ++Q)
    AllButLast.push_back(Q);
  A.addX(9, AllButLast);
  EquivalenceReport R = checkEquivalence(A, B, 4);
  EXPECT_FALSE(R.Equivalent);
  EXPECT_TRUE(R.BitSliced);
  EXPECT_NE(R.Detail.find("basis state 111111111"), std::string::npos)
      << R.Detail;
}

TEST(Equivalence, CrossCheckValidatesBitSlicedAgainstInterpreter) {
  // The --verify-each hook: every block replays one state through
  // sim::runBasis and compares lane-for-lane.
  Circuit C;
  C.NumQubits = 12;
  C.addX(4, {0, 1, 2});
  C.addX(11, {4});
  C.addX(0);
  EquivalenceOptions Opts;
  Opts.CrossCheck = true;
  EquivalenceReport R = checkEquivalence(C, C, Opts);
  EXPECT_TRUE(R.Equivalent) << R.Detail;
  EXPECT_TRUE(R.Exhaustive);
  EXPECT_EQ(R.StatesRun, 4096u);
}

TEST(Equivalence, ReportsSweepTiming) {
  Circuit C;
  C.NumQubits = 16;
  C.addX(15, {0});
  EquivalenceReport R = checkEquivalence(C, C, 4);
  EXPECT_TRUE(R.Equivalent);
  EXPECT_GT(R.Seconds, 0.0);
  EXPECT_EQ(R.StatesRun, uint64_t{1} << 16);
}

TEST(Equivalence, ClassifiesCircuits) {
  Circuit X;
  X.NumQubits = 2;
  X.addX(1, {0});
  EXPECT_TRUE(isClassical(X));
  X.addH(0);
  EXPECT_FALSE(isClassical(X));
}

TEST(Equivalence, CatchesBehavioralDifference) {
  Circuit A, B;
  A.NumQubits = B.NumQubits = 4;
  A.addX(2, {0});
  B.addX(2, {1});
  EquivalenceReport R = checkEquivalence(A, B);
  EXPECT_FALSE(R.Equivalent);
  EXPECT_FALSE(R.Detail.empty());
}

TEST(Equivalence, ToleratesCleanAncillas) {
  // Toffoli-legalized vs MCX original: extra wires must start and end
  // at |0>, which the decompose ladder guarantees.
  Circuit C;
  C.NumQubits = 6;
  C.addX(5, {0, 1, 2, 3, 4});
  Circuit L = decompose::toToffoli(C);
  ASSERT_GT(L.NumQubits, C.NumQubits);
  EquivalenceReport R = checkEquivalence(C, L);
  EXPECT_TRUE(R.Equivalent) << R.Detail;
}

TEST(Equivalence, StateVectorPathHandlesHadamards) {
  Circuit A;
  A.NumQubits = 2;
  A.addH(0);
  A.addH(0); // HH = identity.
  Circuit Id;
  Id.NumQubits = 2;
  EquivalenceReport R = checkEquivalence(A, Id, 4);
  EXPECT_TRUE(R.Equivalent) << R.Detail;
}

TEST(Equivalence, StateVectorPathCatchesPhaseDifference) {
  // S != Sdg on superposed inputs (H exposes the relative phase).
  Circuit A, B;
  A.NumQubits = B.NumQubits = 1;
  A.addH(0);
  A.Gates.push_back(Gate(GateKind::S, 0));
  A.addH(0);
  B.addH(0);
  B.Gates.push_back(Gate(GateKind::Sdg, 0));
  B.addH(0);
  EquivalenceReport R = checkEquivalence(A, B, 4);
  EXPECT_FALSE(R.Equivalent);
}

TEST(QasmReaderErrors, RejectsOverflowingControlCount) {
  // 2^32 must not wrap to 0 controls through the narrowing cast.
  std::string Errors;
  EXPECT_FALSE(parse("qubit[1] q; ctrl(4294967296) @ x q[0];", &Errors));
  EXPECT_NE(Errors.find("positive control count"), std::string::npos)
      << Errors;
}
