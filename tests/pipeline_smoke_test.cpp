//===----------------------------------------------------------------------===//
// End-to-end smoke tests: parse -> check -> lower -> cost model ->
// compile -> decompose -> simulate, on the paper's running examples.
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "costmodel/CostModel.h"
#include "driver/Pipeline.h"
#include "decompose/Decompose.h"
#include "frontend/Parser.h"
#include "lowering/Lower.h"
#include "opt/Spire.h"
#include "sim/Interpreter.h"
#include "support/PolyFit.h"

#include <gtest/gtest.h>

using namespace spire;

namespace {

circuit::TargetConfig defaultConfig() { return {}; }

/// Builds the machine state for a linked list with the given values laid
/// out in cells 1..k; returns the head pointer value.
uint64_t encodeList(sim::MachineState &State,
                    const std::vector<uint64_t> &Values,
                    unsigned WordBits = 8) {
  unsigned Cell = 1;
  uint64_t Head = Values.empty() ? 0 : Cell;
  for (size_t I = 0; I != Values.size(); ++I) {
    uint64_t Next = I + 1 < Values.size() ? Cell + 1 : 0;
    State.Mem[Cell] = Values[I] | (Next << WordBits);
    ++Cell;
  }
  return Head;
}

} // namespace

TEST(Pipeline, LengthLowers) {
  ir::CoreProgram P =
      benchmarks::lowerBenchmark(benchmarks::lengthBenchmark(), 3);
  EXPECT_EQ(P.Inputs.size(), 2u);
  EXPECT_FALSE(P.Body.empty());
  EXPECT_FALSE(P.OutputVar.empty());
}

TEST(Pipeline, LengthInterpretsCorrectly) {
  circuit::TargetConfig Config = defaultConfig();
  ir::CoreProgram P =
      benchmarks::lowerBenchmark(benchmarks::lengthBenchmark(), 5);
  for (unsigned Len = 0; Len <= 4; ++Len) {
    sim::MachineState S = sim::MachineState::make(Config.HeapCells);
    std::vector<uint64_t> Values;
    for (unsigned I = 0; I != Len; ++I)
      Values.push_back(10 + I);
    S.Regs["xs"] = encodeList(S, Values);
    S.Regs["acc"] = 0;
    sim::Interpreter Interp(P, Config);
    ASSERT_TRUE(Interp.run(S)) << Interp.error();
    EXPECT_EQ(Interp.output(S), Len) << "list length " << Len;
  }
}

TEST(Pipeline, LengthCompilesAndMatchesInterpreter) {
  circuit::TargetConfig Config = defaultConfig();
  ir::CoreProgram P =
      benchmarks::lowerBenchmark(benchmarks::lengthBenchmark(), 3);
  circuit::CompileResult R = circuit::compileToCircuit(P, Config);

  sim::MachineState S = sim::MachineState::make(Config.HeapCells);
  S.Regs["xs"] = encodeList(S, {7, 9});
  S.Regs["acc"] = 0;

  sim::MachineState Expected = S;
  sim::Interpreter Interp(P, Config);
  ASSERT_TRUE(Interp.run(Expected)) << Interp.error();
  EXPECT_EQ(Interp.output(Expected), 2u);

  sim::BitString Bits = sim::encodeState(S, R.Layout);
  sim::runBasis(R.Circ, Bits);
  uint64_t Out = Bits.read(R.Layout.Output.Offset, R.Layout.Output.Width);
  EXPECT_EQ(Out, 2u);
}

TEST(Pipeline, CostModelMatchesCompiledCounts) {
  // Theorems 5.1 / 5.2 instantiated exactly: the syntax-level cost model
  // equals the compiled circuit's gate counts.
  circuit::TargetConfig Config = defaultConfig();
  for (int N : {2, 3, 4}) {
    ir::CoreProgram P =
        benchmarks::lowerBenchmark(benchmarks::lengthBenchmark(), N);
    costmodel::Cost Predicted = costmodel::analyzeProgram(P, Config);
    circuit::CompileResult R = circuit::compileToCircuit(P, Config);
    circuit::GateCounts Counts = circuit::countGates(R.Circ);
    EXPECT_EQ(Predicted.MCX, Counts.Total) << "n=" << N;
    EXPECT_EQ(Predicted.T, Counts.TComplexity) << "n=" << N;
  }
}

TEST(Pipeline, DecompositionPreservesTComplexity) {
  circuit::TargetConfig Config = defaultConfig();
  ir::CoreProgram P =
      benchmarks::lowerBenchmark(benchmarks::lengthBenchmark(), 2);
  circuit::CompileResult R = circuit::compileToCircuit(P, Config);
  int64_t TMcx = circuit::countGates(R.Circ).TComplexity;

  circuit::Circuit Toff = decompose::toToffoli(R.Circ);
  EXPECT_EQ(circuit::countGates(Toff).TComplexity, TMcx);
  for (const circuit::Gate &G : Toff.Gates)
    EXPECT_LE(G.numControls(), 2u);

  circuit::Circuit CT = decompose::toCliffordT(Toff);
  circuit::GateCounts CTCounts = circuit::countGates(CT);
  EXPECT_EQ(CTCounts.TComplexity, TMcx);
  EXPECT_EQ(CTCounts.T, TMcx); // all T gates are explicit now
}

TEST(Pipeline, SpireOptimizationPreservesSemantics) {
  circuit::TargetConfig Config = defaultConfig();
  ir::CoreProgram P =
      benchmarks::lowerBenchmark(benchmarks::lengthBenchmark(), 4);
  ir::CoreProgram Opt = opt::optimizeProgram(P, opt::SpireOptions::all());

  for (unsigned Len = 0; Len <= 3; ++Len) {
    sim::MachineState S = sim::MachineState::make(Config.HeapCells);
    std::vector<uint64_t> Values;
    for (unsigned I = 0; I != Len; ++I)
      Values.push_back(20 + I);
    S.Regs["xs"] = encodeList(S, Values);
    sim::MachineState S2 = S;

    sim::Interpreter I1(P, Config), I2(Opt, Config);
    ASSERT_TRUE(I1.run(S)) << I1.error();
    ASSERT_TRUE(I2.run(S2)) << I2.error();
    EXPECT_EQ(I1.output(S), I2.output(S2)) << "len=" << Len;
    EXPECT_EQ(S.Mem, S2.Mem);
  }
}

TEST(Pipeline, SpireReducesTComplexityAsymptotically) {
  // The headline result (Fig. 12a): optimized length is O(n) in T.
  circuit::TargetConfig Config = defaultConfig();
  std::vector<int64_t> Unopt, Opted;
  for (int N = 2; N <= 6; ++N) {
    ir::CoreProgram P =
        benchmarks::lowerBenchmark(benchmarks::lengthBenchmark(), N);
    Unopt.push_back(costmodel::analyzeProgram(P, Config).T);
    ir::CoreProgram O = opt::optimizeProgram(P, opt::SpireOptions::all());
    Opted.push_back(costmodel::analyzeProgram(O, Config).T);
  }
  EXPECT_EQ(support::fittedDegree(2, Unopt), 2) << "unoptimized is O(n^2)";
  EXPECT_EQ(support::fittedDegree(2, Opted), 1) << "optimized is O(n)";
}

//===----------------------------------------------------------------------===//
// The retired ROADMAP known-limit, pinned: const-arg recursion lowers to
// IR that nests one with-block per level, and every downstream pass —
// the Spire rewriter, with-do flattening, the circuit emitter, printing,
// destruction, and the cost walk — used to recurse per level and
// overflow the C++ stack around depth ~15k. All of them are worklist
// machines now; depth 100k must flow source -> optimized IR -> cost
// model -> .qc circuit with bounded stack.
//===----------------------------------------------------------------------===//

TEST(Pipeline, ConstArgRecursionAtDepth100kCompilesToCircuit) {
  const char Source[] = "fun g[n](a: uint) -> uint {"
                        "  let out <- g[n-1](0);"
                        "  return out; }";
  driver::PipelineOptions Opts = driver::PipelineOptions::forEntry("g",
                                                                   100000);
  Opts.BuildCircuit = true;
  Opts.MaxInlineInstances = 1000000;
  Opts.MaxInlineDepth = 1000000;
  driver::CompilationPipeline Pipeline(Opts);
  driver::CompilationResult R = Pipeline.run(Source);
  ASSERT_TRUE(R.succeeded())
      << (R.Failed ? driver::stageName(*R.Failed) : "?") << ":\n"
      << R.Diags.str();
  ASSERT_TRUE(R.Core && R.Optimized && R.Compiled);
  EXPECT_TRUE(R.OptimizedCost) << "cost walk must survive the depth too";
  // The rendered .qc text must materialize without the printer recursing
  // either (the circuit itself is shallow; this exercises the writer on
  // a compile whose IR was deep).
  EXPECT_FALSE(Pipeline.renderFinalCircuit(R).empty());
}

//===----------------------------------------------------------------------===//
// Allocation leanness of lowering and circuit-compile. The lowerer's
// scopes and name counters and the emitter's register table are flat
// Symbol-keyed tables, so a name costs no heap node: lowering allocates
// a bounded number of times per inlined instance (the IR statements it
// builds), and circuit-compile a number independent of the statement
// count.
//===----------------------------------------------------------------------===//

TEST(Pipeline, LowerAndCompileAllocationsDoNotGrowPerName) {
  // bench_pipeline_scale's size program: one adder and one directly
  // bound call per level, so size N inlines N instances.
  const char Source[] = "fun f[n](a: uint) -> uint {"
                        "  let a2 <- a + 1;"
                        "  let out <- f[n-1](a2);"
                        "  return out; }";
  auto allocsOf = [&](int64_t Size, driver::Stage Which) -> int64_t {
    driver::PipelineOptions Opts = driver::PipelineOptions::forEntry("f",
                                                                     Size);
    Opts.Target.WordBits = 4;
    Opts.BuildCircuit = true;
    Opts.AnalyzeUnoptimized = false;
    Opts.MaxInlineInstances = 1000000;
    Opts.MaxInlineDepth = 1000000;
    driver::CompilationResult R = driver::CompilationPipeline(Opts).run(Source);
    EXPECT_TRUE(R.succeeded()) << R.Diags.str();
    for (const driver::StageTiming &T : R.Stages)
      if (T.Which == Which)
        return T.Allocs;
    ADD_FAILURE() << "stage " << driver::stageName(Which) << " did not run";
    return -1;
  };
  constexpr int64_t Small = 2000, Large = 20000;
  constexpr int64_t MaxLowerAllocsPerInstance = 4;
  for (int64_t Size : {Small, Large}) {
    SCOPED_TRACE("size " + std::to_string(Size));
    EXPECT_LE(allocsOf(Size, driver::Stage::Lower),
              MaxLowerAllocsPerInstance * Size);
  }
  // Ten times the statements, the same allocations up to the few
  // doublings of the register table and the gate vector's reservations.
  int64_t CompileSmall = allocsOf(Small, driver::Stage::CircuitCompile);
  int64_t CompileLarge = allocsOf(Large, driver::Stage::CircuitCompile);
  EXPECT_LE(CompileLarge, CompileSmall + 16);
}
