//===----------------------------------------------------------------------===//
// Tests for .qc emission (Mosca 2016, the Tower compiler's output format
// and Feynman's input format): header lines, per-gate syntax, layout
// markers, and end-to-end emission of a compiled benchmark.
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "circuit/QcWriter.h"
#include "decompose/Decompose.h"
#include "interchange/QasmReader.h"
#include "interchange/QasmWriter.h"
#include "support/FileIO.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include <unistd.h>

using namespace spire;
using namespace spire::circuit;

namespace {

std::vector<std::string> lines(const std::string &Text) {
  std::vector<std::string> Out;
  std::stringstream Stream(Text);
  std::string Line;
  while (std::getline(Stream, Line))
    Out.push_back(Line);
  return Out;
}

/// First line starting with the given prefix, or "".
std::string lineWith(const std::string &Text, const std::string &Prefix) {
  for (const std::string &L : lines(Text))
    if (L.rfind(Prefix, 0) == 0)
      return L;
  return "";
}

} // namespace

TEST(QcWriter, HeaderListsAllQubits) {
  Circuit C;
  C.NumQubits = 3;
  EXPECT_EQ(lineWith(writeQc(C), ".v"), ".v q0 q1 q2");
}

TEST(QcWriter, BeginEndBracketTheGateList) {
  Circuit C;
  C.NumQubits = 1;
  C.addX(0);
  std::vector<std::string> L = lines(writeQc(C));
  ASSERT_GE(L.size(), 4u);
  EXPECT_EQ(L[L.size() - 1], "END");
  bool SawBegin = false;
  for (const std::string &Line : L)
    SawBegin |= Line == "BEGIN";
  EXPECT_TRUE(SawBegin);
}

TEST(QcWriter, MCXUsesTofWithTargetLast) {
  Circuit C;
  C.NumQubits = 4;
  C.addX(3, {0, 1, 2});
  EXPECT_EQ(lineWith(writeQc(C), "tof"), "tof q0 q1 q2 q3");
}

TEST(QcWriter, PlainNotIsSingleOperandTof) {
  Circuit C;
  C.NumQubits = 2;
  C.addX(1);
  EXPECT_EQ(lineWith(writeQc(C), "tof"), "tof q1");
}

TEST(QcWriter, PhaseAndHadamardSpellings) {
  Circuit C;
  C.NumQubits = 2;
  C.Gates.push_back(Gate(GateKind::T, 0));
  C.Gates.push_back(Gate(GateKind::Tdg, 0));
  C.Gates.push_back(Gate(GateKind::S, 1));
  C.Gates.push_back(Gate(GateKind::Sdg, 1));
  C.Gates.push_back(Gate(GateKind::Z, 1));
  C.addH(0);
  C.addH(1, {0});
  std::string Text = writeQc(C);
  EXPECT_NE(Text.find("T q0"), std::string::npos);
  EXPECT_NE(Text.find("T* q0"), std::string::npos);
  EXPECT_NE(Text.find("S q1"), std::string::npos);
  EXPECT_NE(Text.find("S* q1"), std::string::npos);
  EXPECT_NE(Text.find("Z q1"), std::string::npos);
  EXPECT_NE(Text.find("H q0"), std::string::npos);
  EXPECT_NE(Text.find("CH q0 q1"), std::string::npos);
}

TEST(QcWriter, LayoutMarksInputsAndOutput) {
  Circuit C;
  C.NumQubits = 6;
  CircuitLayout Layout;
  Layout.Inputs["a"] = {0, 2};
  Layout.Output = {4, 2};
  std::string Text = writeQc(C, &Layout);
  EXPECT_EQ(lineWith(Text, ".i"), ".i q0 q1");
  EXPECT_EQ(lineWith(Text, ".o"), ".o q4 q5");
}

TEST(QcWriter, NoLayoutMeansNoMarkers) {
  Circuit C;
  C.NumQubits = 2;
  std::string Text = writeQc(C);
  EXPECT_EQ(lineWith(Text, ".i"), "");
  EXPECT_EQ(lineWith(Text, ".o"), "");
}

TEST(QcWriter, EmissionIsDeterministic) {
  ir::CoreProgram P =
      benchmarks::lowerBenchmark(benchmarks::lengthSimplified(), 3);
  TargetConfig Config;
  CompileResult R1 = compileToCircuit(P, Config);
  CompileResult R2 = compileToCircuit(P, Config);
  EXPECT_EQ(writeQc(R1.Circ, &R1.Layout), writeQc(R2.Circ, &R2.Layout));
}

TEST(QcWriter, GateCountMatchesEmittedLines) {
  ir::CoreProgram P =
      benchmarks::lowerBenchmark(benchmarks::lengthSimplified(), 2);
  TargetConfig Config;
  CompileResult R = compileToCircuit(P, Config);
  Circuit CT = decompose::toCliffordT(R.Circ);
  std::vector<std::string> L = lines(writeQc(CT));
  // Lines between BEGIN and END correspond one-to-one to gates.
  size_t Begin = 0, End = 0;
  for (size_t I = 0; I != L.size(); ++I) {
    if (L[I] == "BEGIN")
      Begin = I;
    if (L[I] == "END")
      End = I;
  }
  EXPECT_EQ(End - Begin - 1, CT.Gates.size());
}

//===----------------------------------------------------------------------===//
// .qc reading (QcReader): round trips with the writer, external-dialect
// acceptance, and rejection of malformed input.
//===----------------------------------------------------------------------===//

#include "circuit/QcReader.h"

namespace {

std::optional<Circuit> parseQc(const std::string &Text,
                               std::string *ErrorsOut = nullptr) {
  support::DiagnosticEngine Diags;
  std::optional<Circuit> C = readQc(Text, Diags);
  if (ErrorsOut)
    *ErrorsOut = Diags.str();
  return C;
}

} // namespace

TEST(QcReader, RoundTripsWriterOutput) {
  Circuit C;
  C.NumQubits = 4;
  C.addX(3, {0, 1});
  C.addX(0);
  C.addH(1);
  C.addH(2, {0});
  C.Gates.push_back(Gate(GateKind::T, 2));
  C.Gates.push_back(Gate(GateKind::Tdg, 3));
  C.Gates.push_back(Gate(GateKind::S, 0));
  C.Gates.push_back(Gate(GateKind::Sdg, 1));
  C.Gates.push_back(Gate(GateKind::Z, 2));

  std::optional<Circuit> Back = parseQc(writeQc(C));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->NumQubits, C.NumQubits);
  ASSERT_EQ(Back->Gates.size(), C.Gates.size());
  for (size_t I = 0; I != C.Gates.size(); ++I)
    EXPECT_TRUE(Back->Gates[I] == C.Gates[I]) << "gate " << I;
}

TEST(QcReader, RoundTripsCompiledBenchmark) {
  ir::CoreProgram P =
      benchmarks::lowerBenchmark(benchmarks::lengthSimplified(), 3);
  TargetConfig Config;
  CompileResult R = compileToCircuit(P, Config);
  std::optional<Circuit> Back = parseQc(writeQc(R.Circ, &R.Layout));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->NumQubits, R.Circ.NumQubits);
  ASSERT_EQ(Back->Gates.size(), R.Circ.Gates.size());
  EXPECT_EQ(countGates(*Back).TComplexity,
            countGates(R.Circ).TComplexity);
}

TEST(QcReader, AcceptsArbitraryQubitNames) {
  std::optional<Circuit> C = parseQc(".v alice bob\nBEGIN\n"
                                     "tof alice bob\nEND\n");
  ASSERT_TRUE(C.has_value());
  EXPECT_EQ(C->NumQubits, 2u);
  ASSERT_EQ(C->Gates.size(), 1u);
  EXPECT_TRUE(C->Gates[0].isCNOT());
}

TEST(QcReader, RejectsUnknownQubit) {
  std::string Errors;
  EXPECT_FALSE(parseQc(".v q0\nBEGIN\ntof q9\nEND\n", &Errors));
  EXPECT_NE(Errors.find("unknown qubit"), std::string::npos);
}

TEST(QcReader, RejectsUnknownGate) {
  std::string Errors;
  EXPECT_FALSE(parseQc(".v q0\nBEGIN\nfrobnicate q0\nEND\n", &Errors));
  EXPECT_NE(Errors.find("unknown gate"), std::string::npos);
}

TEST(QcReader, RejectsGateOutsideBody) {
  std::string Errors;
  EXPECT_FALSE(parseQc(".v q0\ntof q0\nBEGIN\nEND\n", &Errors));
  EXPECT_NE(Errors.find("outside"), std::string::npos);
}

TEST(QcReader, RejectsMissingEnd) {
  std::string Errors;
  EXPECT_FALSE(parseQc(".v q0\nBEGIN\ntof q0\n", &Errors));
  EXPECT_NE(Errors.find("missing END"), std::string::npos);
}

TEST(QcReader, RejectsDuplicateQubitDeclaration) {
  std::string Errors;
  EXPECT_FALSE(parseQc(".v q0 q0\nBEGIN\nEND\n", &Errors));
  EXPECT_NE(Errors.find("duplicate qubit"), std::string::npos);
}

TEST(QcReader, DedupesDuplicateControls) {
  // A doubled control is the same single control: `tof a a c` reads as
  // the CNOT `tof a c` (Gate::normalize dedupes).
  std::optional<Circuit> C = parseQc(".v a b c\nBEGIN\ntof a a c\nEND\n");
  ASSERT_TRUE(C.has_value());
  ASSERT_EQ(C->Gates.size(), 1u);
  EXPECT_EQ(C->Gates[0].Target, 2u);
  EXPECT_EQ(C->Gates[0].Controls, (std::vector<Qubit>{0}));
}

TEST(QcReader, RejectsTargetAsControl) {
  std::string Errors;
  EXPECT_FALSE(parseQc(".v a b\nBEGIN\ntof a a\nEND\n", &Errors));
  EXPECT_NE(Errors.find("repeats a control"), std::string::npos);
}

TEST(QcReader, RejectsPhaseGateWithControls) {
  std::string Errors;
  EXPECT_FALSE(parseQc(".v a b\nBEGIN\nT a b\nEND\n", &Errors));
  EXPECT_NE(Errors.find("exactly one qubit"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// .qc reader error paths: every malformed construct must produce a
// diagnostic through the engine, never a crash or a silently wrong
// circuit (the reader is the trust boundary for external circuit text).
//===----------------------------------------------------------------------===//

TEST(QcReaderErrors, RejectsUnknownQubitInInputMarker) {
  std::string Errors;
  EXPECT_FALSE(parseQc(".v a b\n.i a ghost\nBEGIN\nEND\n", &Errors));
  EXPECT_NE(Errors.find("unknown qubit 'ghost'"), std::string::npos)
      << Errors;
}

TEST(QcReaderErrors, RejectsUnknownQubitInOutputMarker) {
  std::string Errors;
  EXPECT_FALSE(parseQc(".v a b\n.o ghost\nBEGIN\nEND\n", &Errors));
  EXPECT_NE(Errors.find("unknown qubit 'ghost'"), std::string::npos)
      << Errors;
}

TEST(QcReaderErrors, RejectsInputMarkerBeforeDeclaration) {
  // Names in .i must already be declared; before .v nothing is.
  std::string Errors;
  EXPECT_FALSE(parseQc(".i a\n.v a\nBEGIN\nEND\n", &Errors));
  EXPECT_NE(Errors.find("unknown qubit 'a'"), std::string::npos) << Errors;
}

TEST(QcReaderErrors, RejectsInputMarkerInsideBody) {
  std::string Errors;
  EXPECT_FALSE(parseQc(".v a\nBEGIN\n.i a\nEND\n", &Errors));
  EXPECT_NE(Errors.find("must precede the BEGIN/END block"),
            std::string::npos)
      << Errors;
}

TEST(QcReaderErrors, RejectsDeclarationAfterEnd) {
  std::string Errors;
  EXPECT_FALSE(parseQc(".v a\nBEGIN\nEND\n.v b\n", &Errors));
  EXPECT_NE(Errors.find("must precede the BEGIN/END block"),
            std::string::npos)
      << Errors;
}

TEST(QcReaderErrors, RejectsGateWithNoOperands) {
  std::string Errors;
  EXPECT_FALSE(parseQc(".v a\nBEGIN\ntof\nEND\n", &Errors));
  EXPECT_NE(Errors.find("needs a target qubit"), std::string::npos)
      << Errors;
}

TEST(QcReaderErrors, RejectsBeginWithoutDeclaration) {
  std::string Errors;
  EXPECT_FALSE(parseQc("BEGIN\nEND\n", &Errors));
  EXPECT_NE(Errors.find("BEGIN before any .v"), std::string::npos)
      << Errors;
}

TEST(QcReaderErrors, RejectsEmptyInput) {
  std::string Errors;
  EXPECT_FALSE(parseQc("", &Errors));
  EXPECT_NE(Errors.find("missing .v"), std::string::npos) << Errors;
}

TEST(QcReaderErrors, DiagnosticsCarryLineNumbers) {
  std::string Errors;
  EXPECT_FALSE(parseQc(".v a\nBEGIN\nfrobnicate a\nEND\n", &Errors));
  // The unknown gate sits on line 3.
  EXPECT_NE(Errors.find("3:"), std::string::npos) << Errors;
}

TEST(QcReaderErrors, ControlledZRoundTrips) {
  // Multi-operand Z is controlled-Z in both directions.
  std::optional<Circuit> C = parseQc(".v a b c\nBEGIN\nZ a b c\nEND\n");
  ASSERT_TRUE(C.has_value());
  ASSERT_EQ(C->Gates.size(), 1u);
  EXPECT_EQ(C->Gates[0].Kind, GateKind::Z);
  EXPECT_EQ(C->Gates[0].numControls(), 2u);
  // The writer renames wires canonically but keeps the gate shape.
  EXPECT_EQ(writeQc(*C), ".v q0 q1 q2\n\nBEGIN\nZ q0 q1 q2\nEND\n");
}

TEST(QcWriter, ControlledPhaseOperandsAreNeverDropped) {
  // The dialect has no controlled-S/T spelling; the writer must emit
  // the operands anyway so re-import rejects the text instead of
  // silently producing an uncontrolled gate.
  Circuit C;
  C.NumQubits = 2;
  C.Gates.push_back(Gate(GateKind::S, 1, {0}));
  std::string Text = writeQc(C);
  EXPECT_NE(Text.find("S q0 q1"), std::string::npos) << Text;
  std::string Errors;
  EXPECT_FALSE(parseQc(Text, &Errors));
  EXPECT_NE(Errors.find("exactly one qubit"), std::string::npos) << Errors;
}

//===----------------------------------------------------------------------===//
// Streaming emission through support::OutputSink
//===----------------------------------------------------------------------===//

namespace {

/// A sink that records every drain, to see the buffer flush.
class CountingSink final : public support::OutputSink {
public:
  std::string Text;
  int Drains = 0;

private:
  bool drain(const char *Data, size_t N) override {
    ++Drains;
    Text.append(Data, N);
    return true;
  }
};

/// Over 1 MiB of text in either format: 100,000 Toffolis over a wide
/// register, phase and Hadamard gates, and one MCX too wide for the
/// sink's buffer (5,000 controls), which the writers emit piecewise.
Circuit largeCircuit() {
  Circuit C;
  C.NumQubits = 100000;
  for (Qubit Q = 0; Q != C.NumQubits; ++Q)
    C.addX(Q, {(Q + 1) % C.NumQubits, (Q + 99991) % C.NumQubits});
  C.addH(7);
  C.addH(8, {9});
  C.Gates.push_back(Gate(GateKind::T, 99999));
  C.Gates.push_back(Gate(GateKind::Tdg, 0));
  ControlList Wide;
  for (Qubit Q = 1; Q <= 5000; ++Q)
    Wide.push_back(Q);
  C.addX(0, Wide);
  C.Gates.push_back(Gate(GateKind::Z, 3, {4}));
  return C;
}

std::string readBack(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

} // namespace

TEST(StreamingEmission, LargeCircuitIsIdenticalInEverySink) {
  Circuit C = largeCircuit();
  struct Writer {
    const char *Name;
    std::string (*ToString)(const Circuit &, const CircuitLayout *);
    void (*ToSink)(const Circuit &, const CircuitLayout *,
                   support::OutputSink &);
  };
  const Writer Writers[] = {
      {"qc", writeQc, writeQc},
      {"qasm3", interchange::writeQasm3, interchange::writeQasm3},
  };
  for (const Writer &W : Writers) {
    SCOPED_TRACE(W.Name);
    std::string Text = W.ToString(C, nullptr);
    EXPECT_GT(Text.size(), size_t{1} << 20);

    CountingSink Counting;
    W.ToSink(C, nullptr, Counting);
    ASSERT_TRUE(Counting.flush());
    EXPECT_GT(Counting.Drains, 1) << "the sink must flush more than once";
    EXPECT_EQ(Counting.bytes(), Text.size());
    EXPECT_EQ(Counting.Text, Text);

    std::string Path = ::testing::TempDir() + "streaming." + W.Name;
    std::string Error;
    {
      support::StagedFile File(Path);
      W.ToSink(C, nullptr, File);
      ASSERT_TRUE(File.commit(Error)) << Error;
    }
    EXPECT_EQ(readBack(Path), Text);
    std::remove(Path.c_str());

    // The text reads back gate for gate.
    support::DiagnosticEngine Diags;
    std::optional<Circuit> Back =
        std::string(W.Name) == "qc" ? readQc(Text, Diags)
                                    : interchange::readQasm3(Text, Diags);
    ASSERT_TRUE(Back.has_value()) << Diags.str();
    EXPECT_EQ(Back->NumQubits, C.NumQubits);
    ASSERT_EQ(Back->Gates.size(), C.Gates.size());
    for (size_t I = 0; I != C.Gates.size(); ++I)
      ASSERT_TRUE(Back->Gates[I] == C.Gates[I]) << "gate " << I;
  }
}

TEST(StreamingEmission, UncommittedStagedFileLeavesDestinationAlone) {
  std::string Path = ::testing::TempDir() + "streaming_keep.qc";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << "original";
  }
  {
    support::StagedFile File(Path);
    writeQc(largeCircuit(), nullptr, File);
    ASSERT_TRUE(File.flush());
    // Destroyed without a commit.
  }
  EXPECT_EQ(readBack(Path), "original");
  std::ifstream Temp(Path + ".tmp." + std::to_string(::getpid()));
  EXPECT_FALSE(Temp.good()) << "an abandoned emission must unlink its temp";
  std::remove(Path.c_str());
}
