//===----------------------------------------------------------------------===//
// Round-trip verification for the interchange subsystem over the paper's
// benchmark suite (the acceptance gate of the subsystem): every compiled
// benchmark circuit, emitted as OpenQASM 3 and re-imported, must be
// behaviorally equivalent to the original on >= 32 sampled basis states
// (sim::runBasis — compiled Tower programs are classical reversible
// permutations), and the .qc <-> qasm3 cross-format trip must be the
// structural identity. Legalization onto the cx basis must leave no
// multi-controlled gate while preserving behavior and T-complexity.
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "benchmarks/Harness.h"
#include "driver/Pipeline.h"
#include "interchange/Interchange.h"

#include <gtest/gtest.h>

using namespace spire;
using namespace spire::circuit;
using namespace spire::interchange;

namespace {

/// Compiles one benchmark to its MCX-level circuit at a small size.
Circuit compileBenchmark(const benchmarks::BenchmarkProgram &B,
                         int64_t Size) {
  driver::PipelineOptions Opts;
  Opts.BuildCircuit = true;
  Opts.AnalyzeCost = false;
  driver::CompilationResult R = benchmarks::runPipelineOrDie(B, Size, Opts);
  return R.Compiled->Circ;
}

} // namespace

TEST(InterchangeRoundTrip, EveryBenchmarkSurvivesQasmRoundTrip) {
  for (const benchmarks::BenchmarkProgram &B : benchmarks::allBenchmarks()) {
    SCOPED_TRACE(B.Name);
    Circuit C = compileBenchmark(B, B.SizeIndexed ? 2 : 0);
    support::DiagnosticEngine Diags;
    std::optional<Circuit> Back =
        readCircuit(writeCircuit(C, Format::Qasm3), Format::Qasm3, Diags);
    ASSERT_TRUE(Back.has_value()) << Diags.str();
    // Structural identity is the strongest form...
    ASSERT_EQ(Back->Gates.size(), C.Gates.size());
    EXPECT_EQ(Back->NumQubits, C.NumQubits);
    // ...and behavioral equivalence on >= 32 sampled basis states is the
    // acceptance criterion.
    EquivalenceReport R = checkEquivalence(C, *Back, 32);
    EXPECT_TRUE(R.Equivalent) << R.Detail;
    EXPECT_GE(R.StatesRun, 32u);
  }
}

TEST(InterchangeRoundTrip, CrossFormatTripIsStructuralIdentity) {
  for (const benchmarks::BenchmarkProgram &B : benchmarks::allBenchmarks()) {
    SCOPED_TRACE(B.Name);
    Circuit C = compileBenchmark(B, B.SizeIndexed ? 2 : 0);
    support::DiagnosticEngine Diags;
    // .qc -> circuit -> qasm3 -> circuit -> .qc must reproduce the text.
    std::string Qc = writeCircuit(C, Format::Qc);
    std::optional<Circuit> FromQc = readCircuit(Qc, Format::Qc, Diags);
    ASSERT_TRUE(FromQc.has_value()) << Diags.str();
    std::optional<Circuit> FromQasm = readCircuit(
        writeCircuit(*FromQc, Format::Qasm3), Format::Qasm3, Diags);
    ASSERT_TRUE(FromQasm.has_value()) << Diags.str();
    EXPECT_EQ(writeCircuit(*FromQasm, Format::Qc), Qc);
  }
}

TEST(InterchangeRoundTrip, QasmEmissionIsAFixpoint) {
  for (const benchmarks::BenchmarkProgram &B : benchmarks::allBenchmarks()) {
    SCOPED_TRACE(B.Name);
    Circuit C = compileBenchmark(B, B.SizeIndexed ? 2 : 0);
    support::DiagnosticEngine Diags;
    std::string Once = writeCircuit(C, Format::Qasm3);
    std::optional<Circuit> Back = readCircuit(Once, Format::Qasm3, Diags);
    ASSERT_TRUE(Back.has_value()) << Diags.str();
    EXPECT_EQ(writeCircuit(*Back, Format::Qasm3), Once);
  }
}

TEST(InterchangeRoundTrip, CxLegalizationRemovesAllMCX) {
  for (const benchmarks::BenchmarkProgram &B : benchmarks::allBenchmarks()) {
    SCOPED_TRACE(B.Name);
    Circuit C = compileBenchmark(B, B.SizeIndexed ? 2 : 0);
    support::DiagnosticEngine Diags;
    std::optional<Circuit> Legal = legalize(C, Basis::CX, Diags);
    ASSERT_TRUE(Legal.has_value()) << Diags.str();
    for (const Gate &G : Legal->Gates) {
      if (G.Kind == GateKind::X) {
        EXPECT_LE(G.numControls(), 1u);
      }
    }
    EXPECT_TRUE(conformsTo(*Legal, Basis::CX));
    EXPECT_EQ(countGates(*Legal).TComplexity, countGates(C).TComplexity);
  }
}

TEST(InterchangeRoundTrip, ToffoliLegalizationIsBehaviorPreserving) {
  // The Toffoli basis keeps circuits X-only (compiled Tower programs
  // have no H), so behavioral equivalence of the legalized circuit is
  // checkable at full scale through runBasis, ancillas tolerated.
  for (const benchmarks::BenchmarkProgram &B : benchmarks::allBenchmarks()) {
    SCOPED_TRACE(B.Name);
    Circuit C = compileBenchmark(B, B.SizeIndexed ? 2 : 0);
    support::DiagnosticEngine Diags;
    std::optional<Circuit> Legal = legalize(C, Basis::Toffoli, Diags);
    ASSERT_TRUE(Legal.has_value()) << Diags.str();
    EquivalenceReport R = checkEquivalence(C, *Legal, 32);
    EXPECT_TRUE(R.Equivalent) << R.Detail;
  }
}

TEST(InterchangeRoundTrip, PipelineLegalizeStageRunsAndTimes) {
  driver::PipelineOptions Opts;
  Opts.BuildCircuit = true;
  Opts.AnalyzeCost = false;
  Opts.Basis = Basis::Toffoli;
  driver::CompilationResult R =
      benchmarks::runPipelineOrDie(benchmarks::lengthSimplified(), 2, Opts);
  ASSERT_TRUE(R.succeeded());
  bool SawLegalize = false;
  for (const driver::StageTiming &T : R.Stages)
    SawLegalize |= T.Which == driver::Stage::Legalize;
  EXPECT_TRUE(SawLegalize);
  ASSERT_NE(R.finalCircuit(), nullptr);
  EXPECT_TRUE(conformsTo(*R.finalCircuit(), Basis::Toffoli));
}

TEST(InterchangeRoundTrip, PipelineSkipsLegalizeWhenConformant) {
  driver::PipelineOptions Opts;
  Opts.BuildCircuit = true;
  Opts.AnalyzeCost = false;
  Opts.Basis = Basis::MCX;
  driver::CompilationResult R =
      benchmarks::runPipelineOrDie(benchmarks::lengthSimplified(), 2, Opts);
  ASSERT_TRUE(R.succeeded());
  for (const driver::StageTiming &T : R.Stages)
    EXPECT_NE(T.Which, driver::Stage::Legalize);
  // The layout stays attached: the final circuit is still the MCX one.
  EXPECT_FALSE(R.Final.has_value());
}

TEST(InterchangeRoundTrip, CircuitInputAxisReadsBothFormats) {
  Circuit C = compileBenchmark(benchmarks::lengthSimplified(), 2);
  for (Format F : {Format::Qc, Format::Qasm3}) {
    SCOPED_TRACE(formatName(F));
    driver::PipelineOptions Opts;
    Opts.Input = driver::InputKind::Circuit;
    Opts.InputFormat = F;
    driver::CompilationPipeline Pipeline(Opts);
    driver::CompilationResult R = Pipeline.run(writeCircuit(C, F));
    ASSERT_TRUE(R.succeeded()) << R.Diags.str();
    ASSERT_NE(R.finalCircuit(), nullptr);
    EXPECT_EQ(R.finalCircuit()->Gates.size(), C.Gates.size());
    EXPECT_EQ(R.Stages.front().Which, driver::Stage::CircuitCompile);
  }
}

TEST(InterchangeRoundTrip, CircuitInputAxisReportsParseFailure) {
  driver::PipelineOptions Opts;
  Opts.Input = driver::InputKind::Circuit;
  Opts.InputFormat = Format::Qasm3;
  driver::CompilationPipeline Pipeline(Opts);
  driver::CompilationResult R = Pipeline.run("qubit[1] q; frobnicate q[0];");
  ASSERT_FALSE(R.succeeded());
  EXPECT_EQ(*R.Failed, driver::Stage::CircuitCompile);
  EXPECT_TRUE(R.Diags.hasErrors());
}
