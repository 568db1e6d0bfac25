//===----------------------------------------------------------------------===//
// Tests for driver::CompilationPipeline: staged results and artifacts,
// per-stage wall-clock timing monotonicity, options plumbing (the -O0 /
// --no-flatten / --no-narrow equivalents), and diagnostics-based error
// propagation with a failed-stage marker.
//===----------------------------------------------------------------------===//

#include "benchmarks/Harness.h"
#include "circuit/Gate.h"
#include "driver/Pipeline.h"

#include <gtest/gtest.h>

using namespace spire;
using driver::CompilationPipeline;
using driver::CompilationResult;
using driver::PipelineOptions;
using driver::Stage;

namespace {

const char *Fig3Source = R"(
fun fig3(x: bool, y: bool, z: bool) {
  let a <- false;
  let b <- false;
  if x {
    if y {
      with {
        let t <- z;
      } do {
        if z {
          let a <- not t;
          let b <- true;
        }
      }
    }
  }
  let r <- (a, b);
  return r;
}
)";

CompilationResult compileFig3(PipelineOptions Opts) {
  Opts.Entry = "fig3";
  CompilationPipeline Pipeline(std::move(Opts));
  return Pipeline.run(Fig3Source);
}

/// Position of stage S in the executed-stage list, or -1.
int stageIndex(const CompilationResult &R, Stage S) {
  for (size_t I = 0; I != R.Stages.size(); ++I)
    if (R.Stages[I].Which == S)
      return static_cast<int>(I);
  return -1;
}

} // namespace

//===----------------------------------------------------------------------===//
// Staged results
//===----------------------------------------------------------------------===//

TEST(DriverStages, FullRunProducesAllArtifacts) {
  PipelineOptions Opts;
  Opts.BuildCircuit = true;
  CompilationResult R = compileFig3(Opts);

  ASSERT_TRUE(R.succeeded()) << R.Diags.str();
  EXPECT_FALSE(R.Diags.hasErrors());
  ASSERT_TRUE(R.AST.has_value());
  ASSERT_TRUE(R.Core.has_value());
  ASSERT_TRUE(R.Optimized.has_value());
  ASSERT_TRUE(R.UnoptimizedCost.has_value());
  ASSERT_TRUE(R.OptimizedCost.has_value());
  ASSERT_TRUE(R.Compiled.has_value());

  EXPECT_FALSE(R.Core->Body.empty());
  EXPECT_FALSE(R.Compiled->Circ.Gates.empty());
  // With no basis and no optimizer the final circuit IS the compiled
  // one, served without duplication.
  EXPECT_FALSE(R.Final.has_value());
  EXPECT_EQ(R.finalCircuit(), &R.Compiled->Circ);
}

TEST(DriverStages, CostModelOnlyRunSkipsCircuitStages) {
  CompilationResult R = compileFig3(PipelineOptions());

  ASSERT_TRUE(R.succeeded()) << R.Diags.str();
  EXPECT_FALSE(R.Compiled.has_value());
  EXPECT_FALSE(R.Final.has_value());
  EXPECT_EQ(R.finalCircuit(), nullptr);
  EXPECT_EQ(stageIndex(R, Stage::CircuitCompile), -1);
  EXPECT_EQ(stageIndex(R, Stage::Qopt), -1);
  ASSERT_TRUE(R.OptimizedCost.has_value());
  EXPECT_GT(R.OptimizedCost->T, 0);
}

TEST(DriverStages, StopAfterLowerSkipsRewritesAndAnalysis) {
  PipelineOptions Opts;
  Opts.StopAfter = Stage::Lower;
  CompilationResult R = compileFig3(Opts);

  ASSERT_TRUE(R.succeeded()) << R.Diags.str();
  ASSERT_TRUE(R.Core.has_value());
  EXPECT_FALSE(R.Optimized.has_value());
  EXPECT_FALSE(R.OptimizedCost.has_value());
  ASSERT_EQ(R.Stages.size(), 3u);
  EXPECT_EQ(R.Stages.back().Which, Stage::Lower);
}

TEST(DriverStages, AnalyzeUnoptimizedCanBeSkipped) {
  PipelineOptions Opts;
  Opts.AnalyzeUnoptimized = false;
  CompilationResult R = compileFig3(Opts);

  ASSERT_TRUE(R.succeeded()) << R.Diags.str();
  EXPECT_FALSE(R.UnoptimizedCost.has_value());
  ASSERT_TRUE(R.OptimizedCost.has_value());
  EXPECT_GT(R.OptimizedCost->T, 0);
}

TEST(DriverStages, CostModelMatchesCompiledCircuit) {
  // Theorem 5.2 exactness, observed across two stages of one run: the
  // estimate stage's cost equals the compiled MCX circuit's counts.
  PipelineOptions Opts;
  Opts.BuildCircuit = true;
  CompilationResult R = compileFig3(Opts);
  ASSERT_TRUE(R.succeeded()) << R.Diags.str();

  circuit::GateCounts Counts = circuit::countGates(*R.finalCircuit());
  EXPECT_EQ(R.OptimizedCost->MCX, Counts.Total);
  EXPECT_EQ(R.OptimizedCost->T, Counts.TComplexity);
}

TEST(DriverStages, StopBeforeQoptStillYieldsAFinalCircuit) {
  // Requesting a circuit optimizer but stopping at circuit-compile must
  // not leave a "successful" result with no emitted circuit.
  PipelineOptions Opts;
  Opts.BuildCircuit = true;
  Opts.CircuitOpt = driver::CircuitOptimizerKind::Peephole;
  Opts.StopAfter = Stage::CircuitCompile;
  CompilationResult R = compileFig3(Opts);

  ASSERT_TRUE(R.succeeded()) << R.Diags.str();
  EXPECT_EQ(stageIndex(R, Stage::Qopt), -1);
  ASSERT_NE(R.finalCircuit(), nullptr);
  EXPECT_EQ(R.finalCircuit(), &R.Compiled->Circ);
}

TEST(DriverStages, DecompositionLevelIsHonored) {
  PipelineOptions Opts;
  Opts.BuildCircuit = true;
  Opts.Basis = interchange::Basis::CX;
  CompilationResult R = compileFig3(Opts);
  ASSERT_TRUE(R.succeeded()) << R.Diags.str();
  EXPECT_GE(stageIndex(R, Stage::Legalize), 0);

  // Decomposition preserves T-complexity and leaves only Clifford+T
  // gates (no gate keeps more than one control).
  circuit::GateCounts Counts = circuit::countGates(*R.Final);
  EXPECT_EQ(Counts.TComplexity, R.OptimizedCost->T);
  for (const circuit::Gate &G : R.Final->Gates)
    EXPECT_LE(G.numControls(), 1u);
}

TEST(DriverStages, QoptStageRunsCircuitOptimizer) {
  PipelineOptions Opts;
  Opts.BuildCircuit = true;
  Opts.CircuitOpt = driver::CircuitOptimizerKind::Peephole;
  CompilationResult R = compileFig3(Opts);

  ASSERT_TRUE(R.succeeded()) << R.Diags.str();
  EXPECT_GE(stageIndex(R, Stage::Qopt), 0);
  ASSERT_TRUE(R.Final.has_value());
  EXPECT_FALSE(R.Final->Gates.empty());
  // The optimizer output is a Clifford+T-level circuit.
  for (const circuit::Gate &G : R.Final->Gates)
    EXPECT_LE(G.numControls(), 1u);
}

//===----------------------------------------------------------------------===//
// Per-stage timing
//===----------------------------------------------------------------------===//

TEST(DriverTiming, StagesExecuteInPipelineOrder) {
  PipelineOptions Opts;
  Opts.BuildCircuit = true;
  Opts.CircuitOpt = driver::CircuitOptimizerKind::RotationMerging;
  CompilationResult R = compileFig3(Opts);
  ASSERT_TRUE(R.succeeded()) << R.Diags.str();

  // Every stage ran exactly once, in declaration order.
  ASSERT_EQ(R.Stages.size(), 7u);
  for (size_t I = 1; I != R.Stages.size(); ++I)
    EXPECT_LT(static_cast<int>(R.Stages[I - 1].Which),
              static_cast<int>(R.Stages[I].Which));
}

TEST(DriverTiming, TimingsAreNonNegativeAndCumulativeMonotone) {
  PipelineOptions Opts;
  Opts.BuildCircuit = true;
  CompilationResult R = compileFig3(Opts);
  ASSERT_TRUE(R.succeeded()) << R.Diags.str();

  double Cumulative = 0;
  for (const driver::StageTiming &T : R.Stages) {
    EXPECT_GE(T.Seconds, 0.0) << driver::stageName(T.Which);
    double Next = Cumulative + T.Seconds;
    EXPECT_GE(Next, Cumulative) << driver::stageName(T.Which);
    Cumulative = Next;
  }
  EXPECT_DOUBLE_EQ(R.totalSeconds(), Cumulative);
  for (const driver::StageTiming &T : R.Stages)
    EXPECT_LE(T.Seconds, R.totalSeconds() + 1e-12);
}

TEST(DriverTiming, StageSecondsLookupMatchesRecords) {
  CompilationResult R = compileFig3(PipelineOptions());
  ASSERT_TRUE(R.succeeded()) << R.Diags.str();
  for (const driver::StageTiming &T : R.Stages)
    EXPECT_DOUBLE_EQ(R.stageSeconds(T.Which), T.Seconds);
  // A stage that did not run reads as zero.
  EXPECT_DOUBLE_EQ(R.stageSeconds(Stage::CircuitCompile), 0.0);
}

TEST(DriverTiming, SurfacedThroughHarnessFormatter) {
  driver::CompilationResult R =
      benchmarks::runPipelineOrDie(benchmarks::figure3Program(), 0);
  std::string Timings = benchmarks::formatStageTimings(R);
  EXPECT_NE(Timings.find("parse"), std::string::npos);
  EXPECT_NE(Timings.find("lower"), std::string::npos);
  EXPECT_NE(Timings.find("estimate"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Options plumbing (the spirec -O0 / --no-flatten / --no-narrow knobs)
//===----------------------------------------------------------------------===//

TEST(DriverOptions, SpireConfigurationsOrderAsInThePaper) {
  PipelineOptions O0;
  O0.Spire = opt::SpireOptions::none();
  PipelineOptions NoFlatten; // --no-flatten: narrowing only
  NoFlatten.Spire = opt::SpireOptions::narrowingOnly();
  PipelineOptions NoNarrow; // --no-narrow: flattening only
  NoNarrow.Spire = opt::SpireOptions::flatteningOnly();
  PipelineOptions All;

  int64_t TOrig = compileFig3(O0).OptimizedCost->T;
  int64_t TCN = compileFig3(NoFlatten).OptimizedCost->T;
  int64_t TCF = compileFig3(NoNarrow).OptimizedCost->T;
  int64_t TBoth = compileFig3(All).OptimizedCost->T;

  // Figs. 7/8: each rewrite helps alone, both together dominate.
  EXPECT_LT(TCN, TOrig);
  EXPECT_LT(TCF, TOrig);
  EXPECT_LE(TBoth, TCN);
  EXPECT_LE(TBoth, TCF);
}

TEST(DriverOptions, DisabledSpireLeavesCostUnchanged) {
  PipelineOptions O0;
  O0.Spire = opt::SpireOptions::none();
  CompilationResult R = compileFig3(O0);
  ASSERT_TRUE(R.succeeded()) << R.Diags.str();
  EXPECT_EQ(R.UnoptimizedCost->MCX, R.OptimizedCost->MCX);
  EXPECT_EQ(R.UnoptimizedCost->T, R.OptimizedCost->T);
}

TEST(DriverOptions, TargetConfigReachesBackend) {
  // fig3 is all bools, so use length, whose uint/pointer registers and
  // qRAM cells track the configured word width.
  PipelineOptions Narrow;
  Narrow.BuildCircuit = true;
  Narrow.Target.WordBits = 4;
  PipelineOptions Wide;
  Wide.BuildCircuit = true;
  Wide.Target.WordBits = 12;

  driver::CompilationResult RN =
      benchmarks::runPipelineOrDie(benchmarks::lengthBenchmark(), 2, Narrow);
  driver::CompilationResult RW =
      benchmarks::runPipelineOrDie(benchmarks::lengthBenchmark(), 2, Wide);
  // Wider registers mean a wider circuit.
  EXPECT_LT(RN.Compiled->Circ.NumQubits, RW.Compiled->Circ.NumQubits);
}

TEST(DriverOptions, SizeIsPlumbedToLowering) {
  driver::CompilationResult R2 =
      benchmarks::runPipelineOrDie(benchmarks::lengthBenchmark(), 2);
  driver::CompilationResult R5 =
      benchmarks::runPipelineOrDie(benchmarks::lengthBenchmark(), 5);
  // Deeper recursion unrolls to strictly more T (Fig. 12a's series).
  EXPECT_LT(R2.OptimizedCost->T, R5.OptimizedCost->T);
}

//===----------------------------------------------------------------------===//
// Error propagation: diagnostics plus a failed-stage marker, no aborts
//===----------------------------------------------------------------------===//

TEST(DriverErrors, ParseErrorFailsParseStage) {
  CompilationPipeline Pipeline(PipelineOptions::forEntry("f"));
  CompilationResult R = Pipeline.run("fun f( { return x; }");

  EXPECT_FALSE(R.succeeded());
  ASSERT_TRUE(R.Failed.has_value());
  EXPECT_EQ(*R.Failed, Stage::Parse);
  EXPECT_TRUE(R.Diags.hasErrors());
  EXPECT_FALSE(R.AST.has_value());
  EXPECT_FALSE(R.Core.has_value());
}

TEST(DriverErrors, UnknownEntryFailsTypecheckStage) {
  CompilationPipeline Pipeline(PipelineOptions::forEntry("no_such_fun"));
  CompilationResult R = Pipeline.run(Fig3Source);

  EXPECT_FALSE(R.succeeded());
  ASSERT_TRUE(R.Failed.has_value());
  EXPECT_EQ(*R.Failed, Stage::Typecheck);
  EXPECT_TRUE(R.Diags.hasErrors());
  EXPECT_NE(R.Diags.str().find("no_such_fun"), std::string::npos);
}

TEST(DriverErrors, TypeErrorFailsTypecheckStage) {
  CompilationPipeline Pipeline(PipelineOptions::forEntry("bad"));
  CompilationResult R = Pipeline.run(R"(
fun bad(x: bool) {
  let y <- x + 1;
  return y;
}
)");

  EXPECT_FALSE(R.succeeded());
  ASSERT_TRUE(R.Failed.has_value());
  EXPECT_EQ(*R.Failed, Stage::Typecheck);
  EXPECT_TRUE(R.Diags.hasErrors());
  // The AST survives for inspection; nothing downstream was produced.
  EXPECT_TRUE(R.AST.has_value());
  EXPECT_FALSE(R.Core.has_value());
  EXPECT_FALSE(R.Optimized.has_value());
}

TEST(DriverErrors, LoweringFailureFailsLowerStage) {
  // Exhaust the static allocator: push_back at depth 3 allocates three
  // cells, but the target heap only has one.
  const benchmarks::BenchmarkProgram *PushBack = nullptr;
  for (const benchmarks::BenchmarkProgram &B : benchmarks::allBenchmarks())
    if (B.Name == "push_back")
      PushBack = &B;
  ASSERT_NE(PushBack, nullptr);

  driver::PipelineOptions Opts;
  Opts.Target.HeapCells = 1;
  driver::CompilationResult R = benchmarks::runPipeline(*PushBack, 3, Opts);

  EXPECT_FALSE(R.succeeded());
  ASSERT_TRUE(R.Failed.has_value());
  EXPECT_EQ(*R.Failed, Stage::Lower);
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(DriverErrors, FailedStagesStillRecordTimings) {
  CompilationPipeline Pipeline(PipelineOptions::forEntry("f"));
  CompilationResult R = Pipeline.run("fun f( { return x; }");
  ASSERT_EQ(R.Stages.size(), 1u);
  EXPECT_EQ(R.Stages[0].Which, Stage::Parse);
  EXPECT_GE(R.Stages[0].Seconds, 0.0);
}

