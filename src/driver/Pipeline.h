//===----------------------------------------------------------------------===//
///
/// \file
/// The unified compilation pipeline of the Spire compiler: the single
/// entry point behind which the tool (`spirec`), the examples, and the
/// benchmark harness all run the paper's frontend-to-backend sequence
/// (Fig. 22 / Sections 6-8):
///
///   parse -> typecheck -> lower -> Spire-optimize -> circuit-compile
///         -> qopt -> legalize -> cost/estimate
///
/// Each stage records wall-clock time and either produces its artifact in
/// the staged CompilationResult or marks the run failed at that stage;
/// all errors flow through support::DiagnosticEngine — library code never
/// prints or exits. Downstream consumers decide how to render failures.
///
/// The pipeline has two input axes (PipelineOptions::Input):
///  * Tower source (the default): the full staged sequence above.
///  * A circuit in an interchange format (`.qc` or OpenQASM 3): the
///    frontend stages are skipped and the circuit-compile stage *parses*
///    the text instead, after which qopt, legalize, and estimate run as
///    usual — the CLI's circuit-in modes (--qc-in / --qasm-in) are this
///    axis.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_DRIVER_PIPELINE_H
#define SPIRE_DRIVER_PIPELINE_H

#include "ast/AST.h"
#include "circuit/Compiler.h"
#include "circuit/Target.h"
#include "costmodel/CostModel.h"
#include "interchange/Interchange.h"
#include "ir/Core.h"
#include "lowering/Lower.h"
#include "opt/Spire.h"
#include "qopt/Passes.h"
#include "support/Diagnostics.h"
#include "support/Governor.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace spire::driver {

/// The stages of the compilation pipeline, in execution order.
enum class Stage {
  Parse,
  Typecheck,
  Lower,
  SpireOpt,
  CircuitCompile,
  Qopt,
  Legalize,
  Estimate,
};

/// Short lower-case stage name, e.g. "circuit-compile".
const char *stageName(Stage S);

/// The circuit-optimizer baselines of Section 8.3, keyed by the system
/// each one stands in for (see DESIGN.md section 2). `None` leaves the
/// qopt stage idle.
enum class CircuitOptimizerKind {
  None,
  Peephole,         ///< Qiskit / Pytket-peephole analogue (Clifford+T).
  CliffordTCancel,  ///< Feynman -toCliffordT analogue (decompose, then
                    ///< cancel + rotation merging).
  RotationMerging,  ///< VOQC / Pytket-ZX analogue (phase folding only).
  ToffoliCancel,    ///< Feynman -mctExpand analogue (cancel at the
                    ///< MCX/Toffoli level, then decompose).
  ExhaustiveCancel, ///< QuiZX analogue (unbounded-lookahead fixpoint at
                    ///< the Toffoli level plus rotation merging; slow).
};

const char *optimizerName(CircuitOptimizerKind Kind);

/// Applies a circuit-optimizer baseline to an MCX-level compiled circuit
/// and returns the resulting Clifford+T-level circuit. When `Stats` is
/// non-null the pass work counters (cancelled pairs, merged rotations,
/// fixpoint passes) accumulate into it across every pass the
/// configuration runs. When `VerifyDiags` is non-null the static
/// circuit verifier runs after every pass application (decompose,
/// cancel, fold) and reports violations there — the --verify-each
/// hook; callers fail on VerifyDiags->hasErrors(). `FaultDiags` (when
/// non-null) receives injected per-pass diag faults (see
/// support/FaultInjector.h); the pipeline passes the run's engine so
/// every pass is a named injection site, and callers likewise fail on
/// new errors.
circuit::Circuit applyCircuitOptimizer(const circuit::Circuit &MCXCircuit,
                                       CircuitOptimizerKind Kind,
                                       qopt::OptStats *Stats = nullptr,
                                       support::DiagnosticEngine *VerifyDiags =
                                           nullptr,
                                       support::DiagnosticEngine *FaultDiags =
                                           nullptr);

/// Whether PipelineOptions::VerifyEach should default on: true when the
/// SPIRE_VERIFY_EACH environment variable is set to anything but "0"
/// (the Debug/sanitizer CI lanes export it so every pipeline consumer —
/// tools, tests, benches — runs verified there without plumbing).
bool verifyEachDefault();

/// What the source text handed to run() contains.
enum class InputKind {
  Tower,   ///< Tower source: the full frontend-to-backend sequence.
  Circuit, ///< A circuit in `InputFormat`: frontend stages are skipped.
};

/// Everything that configures a pipeline run, in one place.
struct PipelineOptions {
  /// Entry function to compile.
  std::string Entry;
  /// Static size (recursion depth) the entry is instantiated at; ignored
  /// for functions without a size parameter.
  int64_t Size = 0;

  /// Input axis: Tower source (default) or interchange circuit text.
  InputKind Input = InputKind::Tower;
  /// Format the circuit text is parsed as when Input is Circuit.
  interchange::Format InputFormat = interchange::Format::Qc;
  /// Format renderFinalCircuit() emits.
  interchange::Format OutputFormat = interchange::Format::Qc;
  /// Target gate basis; when set, the legalize stage lowers the final
  /// circuit onto it via the interchange legalizer — the decomposition
  /// ladder of Section 8.1: Toffoli, then Clifford+T (`cx`); MCX is the
  /// no-op basis. Gates with no exact realization in the basis fail the
  /// stage with a diagnostic.
  std::optional<interchange::Basis> Basis;

  /// Spire's program-level optimizations (Section 6).
  opt::SpireOptions Spire = opt::SpireOptions::all();
  /// Backend word width and qRAM size; also seeds the lowering
  /// allocator's heap-cell budget.
  circuit::TargetConfig Target;
  /// Safety bound on inlined function instances during lowering.
  unsigned MaxInlineInstances = 100000;
  /// Safety bound on call-inlining depth during lowering. The lowerer is
  /// iterative, so exceeding either bound yields a diagnostic at the
  /// lower stage rather than a stack overflow.
  unsigned MaxInlineDepth = 100000;

  /// Resource budgets for the run (wall-clock deadline, allocation
  /// budget, gate/output caps; all 0 = unlimited). When any is set the
  /// pipeline arms a support::Governor for the run — unless the caller
  /// already installed one covering a larger scope (spirec arms one per
  /// invocation / per batch entry) — and every worklist checkpoint
  /// polls it. A tripped budget fails the current stage with a single
  /// `resource-limit` diagnostic and records CompilationResult::LimitHit.
  support::GovernorLimits Limits;

  /// Last stage to execute; later stages are skipped entirely. Lets
  /// lowering-only consumers avoid the Spire rewrite's program clone.
  Stage StopAfter = Stage::Estimate;

  /// Runs the static verifier (src/analysis) on every stage artifact:
  /// IR invariants after lower and spire-opt; circuit + netlist
  /// well-formedness and affine-parity ancilla cleanness after
  /// circuit-compile, after *every* qopt pass application, and after
  /// legalize. Any violation fails the producing stage with
  /// diagnostics. The spirec --verify-each flag sets this; see
  /// verifyEachDefault() for the environment default.
  bool VerifyEach = verifyEachDefault();

  /// Whether to run the circuit-compile stage (and the stages after it
  /// that need a circuit). Cost-model-only consumers leave this off and
  /// stop at the estimate stage, which is the paper's headline use case:
  /// analyze without building the asymptotically large circuit.
  bool BuildCircuit = false;
  /// Circuit-optimizer baseline applied by the qopt stage. When not
  /// `None` it consumes the MCX-level circuit and produces Clifford+T.
  CircuitOptimizerKind CircuitOpt = CircuitOptimizerKind::None;

  /// Whether the estimate stage computes cost-model figures (cheap,
  /// syntax-level; on by default).
  bool AnalyzeCost = true;
  /// Whether the estimate stage also analyzes the unoptimized program
  /// (for before/after reports); measurement loops that only need the
  /// optimized figure turn this off.
  bool AnalyzeUnoptimized = true;

  static PipelineOptions forEntry(std::string Entry, int64_t Size = 0) {
    PipelineOptions O;
    O.Entry = std::move(Entry);
    O.Size = Size;
    return O;
  }
};

/// Wall-clock and allocation record of one executed stage. The memory
/// columns make allocation wins (the point of the interned-symbol IR)
/// observable from `spirec --timings` and the scale benches without
/// attaching a profiler.
struct StageTiming {
  Stage Which = Stage::Parse;
  double Seconds = 0;
  /// Heap allocations (global operator new calls) during the stage.
  int64_t Allocs = 0;
  /// Growth of the process peak RSS across the stage, in KiB. Peak RSS
  /// is monotonic, so this attributes each high-water advance to the
  /// stage that caused it (0 for stages that stayed under the peak).
  int64_t PeakRSSDeltaKb = 0;
};

/// The staged result of a pipeline run: every artifact a stage produced,
/// per-stage timings, and — on failure — the stage that failed plus the
/// diagnostics explaining why. Stages after the failed one do not run.
struct CompilationResult {
  /// Diagnostics accumulated by every stage.
  support::DiagnosticEngine Diags;
  /// Executed stages in order, with wall-clock seconds each.
  std::vector<StageTiming> Stages;
  /// Set when a stage failed; later stages are skipped.
  std::optional<Stage> Failed;
  /// Set when the failure was a tripped resource budget (the governor's
  /// `resource-limit` diagnostic names it). Surfaces as the `limit_hit`
  /// field of `--metrics-json` and drives spirec's exit code 2.
  std::optional<support::ResourceLimit> LimitHit;

  /// Stage artifacts, present when the producing stage ran successfully.
  std::optional<ast::Program> AST;            ///< After typecheck.
  std::optional<ir::CoreProgram> Core;        ///< After lowering.
  std::optional<ir::CoreProgram> Optimized;   ///< After Spire rewrites.
  std::optional<costmodel::Cost> UnoptimizedCost;
  std::optional<costmodel::Cost> OptimizedCost;
  /// The compiled MCX circuit + layout — or, on the circuit-input axis,
  /// the parsed input circuit with an empty layout.
  std::optional<circuit::CompileResult> Compiled;
  /// The qopt-optimized / legalized circuit, when a stage after
  /// circuit-compile produced one. Otherwise this stays empty
  /// (the compiled circuit is not duplicated); use finalCircuit() to
  /// read the emitted circuit uniformly.
  std::optional<circuit::Circuit> Final;
  /// Work counters of the qopt stage (cancelled pairs, merged rotations),
  /// present when a circuit optimizer ran. Rendered next to the stage
  /// timings by consumers that report them (spirec --timings, benches).
  std::optional<qopt::OptStats> QoptStats;

  bool succeeded() const { return !Failed.has_value(); }

  /// The emitted circuit: the optimized/legalized one when a stage
  /// produced it, otherwise the compiled MCX circuit.
  /// Null when no circuit was built.
  const circuit::Circuit *finalCircuit() const {
    if (Final)
      return &*Final;
    if (Compiled)
      return &Compiled->Circ;
    return nullptr;
  }

  /// Seconds spent in one stage (0 when it did not run).
  double stageSeconds(Stage S) const;
  /// Total wall-clock across all executed stages.
  double totalSeconds() const;
};

/// Renders a machine-readable run report (`spirec --metrics-json`): the
/// "spire-metrics-v1" schema with every StageTiming, the qopt work
/// counters, and a snapshot of the global obs::Registry (refreshed with
/// the process gauges first) — a strict superset of what `--timings`
/// prints. docs/observability.md documents the schema and metric names.
std::string renderMetricsJson(const CompilationResult &R);

/// The single compile-pipeline implementation. Construct with options,
/// then run over source text; the pipeline itself is stateless across
/// runs and a const instance may be reused.
class CompilationPipeline {
public:
  explicit CompilationPipeline(PipelineOptions Options)
      : Options(std::move(Options)) {}

  const PipelineOptions &options() const { return Options; }

  /// Runs the staged pipeline over Tower source text — or over circuit
  /// text when Options.Input is InputKind::Circuit.
  CompilationResult run(std::string_view Source) const;

  /// Writes the run's final circuit in Options.OutputFormat into \p Out
  /// (nothing when no circuit was built). The wire layout is attached
  /// only when the final circuit *is* the compiled MCX circuit (layouts
  /// describe MCX-level wires; decomposition and legalization add
  /// ancillas).
  void renderFinalCircuit(const CompilationResult &R,
                          support::OutputSink &Out) const;

  /// renderFinalCircuit into a string; empty when no circuit was built.
  std::string renderFinalCircuit(const CompilationResult &R) const;

private:
  void runBackendStages(CompilationResult &R) const;

  PipelineOptions Options;
};

} // namespace spire::driver

#endif // SPIRE_DRIVER_PIPELINE_H
