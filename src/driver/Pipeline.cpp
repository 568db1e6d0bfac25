#include "driver/Pipeline.h"

#include "analysis/Analysis.h"
#include "decompose/Decompose.h"
#include "frontend/Parser.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sema/TypeChecker.h"
#include "support/AllocStats.h"
#include "support/FaultInjector.h"
#include "support/FileIO.h"
#include "support/Governor.h"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <new>
#include <type_traits>
#include <utility>

namespace spire::driver {

bool verifyEachDefault() {
  // Cached: the default is an environment policy, not per-pipeline
  // state (spirec --verify-each overrides it per invocation).
  static const bool On = [] {
    const char *V = std::getenv("SPIRE_VERIFY_EACH");
    return V && *V && std::string_view(V) != "0";
  }();
  return On;
}

namespace {

/// Verification work feeds the `verify.*` registry metrics so a
/// --verify-each run reports how much checking it did (and a daemon can
/// scrape violation totals).
void recordVerifyMetrics(const analysis::VerifyReport &V) {
  auto &Reg = obs::Registry::global();
  ++Reg.counter("verify.checks");
  Reg.counter("verify.violations") +=
      static_cast<int64_t>(V.Violations.size());
}

/// Stage-boundary IR verification: reports violations as diagnostics
/// under `Context` ("verify(lower)", ...) and fails the stage.
bool verifyIrArtifact(const ir::CoreProgram &P,
                      const circuit::TargetConfig &Target,
                      support::DiagnosticEngine &Diags, const char *Context) {
  analysis::VerifyReport V = analysis::verifyProgram(P, Target);
  recordVerifyMetrics(V);
  if (V.ok())
    return true;
  V.reportTo(Diags, Context);
  return false;
}

/// Stage-boundary circuit verification: structural well-formedness plus
/// netlist integrity always; the affine-parity ancilla-cleanness proof
/// only when a compiled layout is available (the circuit-input axis has
/// no input/ancilla classification, so parity obligations don't apply).
bool verifyCircuitArtifact(const circuit::Circuit &C,
                           const circuit::CircuitLayout *Layout,
                           support::DiagnosticEngine &Diags,
                           const char *Context) {
  analysis::VerifyReport V = analysis::verifyCircuit(C);
  if (V.ok() && Layout) {
    analysis::CleanSpec Spec =
        analysis::CleanSpec::forLayout(*Layout, C.NumQubits);
    analysis::ParityResult PR = analysis::analyzeParity(C, Spec);
    // A governor trip aborts the parity sweep mid-matrix; its partial
    // report would blame sound ancillae, so fail the stage and let the
    // stage wrapper attach the single resource-limit diagnostic.
    if (auto *G = support::Governor::current(); G && G->exceeded())
      return false;
    int64_t Obligations = 0;
    for (bool Req : Spec.RequireClean)
      Obligations += Req;
    int64_t Unproved = static_cast<int64_t>(PR.Report.Violations.size());
    auto &Reg = obs::Registry::global();
    Reg.counter("analysis.parity.obligations") += Obligations;
    Reg.counter("analysis.parity.proved_clean") +=
        Obligations > Unproved ? Obligations - Unproved : 0;
    V.merge(std::move(PR.Report));
  }
  recordVerifyMetrics(V);
  if (V.ok())
    return true;
  V.reportTo(Diags, Context);
  return false;
}

} // namespace

const char *stageName(Stage S) {
  switch (S) {
  case Stage::Parse:
    return "parse";
  case Stage::Typecheck:
    return "typecheck";
  case Stage::Lower:
    return "lower";
  case Stage::SpireOpt:
    return "spire-opt";
  case Stage::CircuitCompile:
    return "circuit-compile";
  case Stage::Qopt:
    return "qopt";
  case Stage::Legalize:
    return "legalize";
  case Stage::Estimate:
    return "estimate";
  }
  return "?";
}

const char *optimizerName(CircuitOptimizerKind Kind) {
  switch (Kind) {
  case CircuitOptimizerKind::None:
    return "none";
  case CircuitOptimizerKind::Peephole:
    return "Peephole (Qiskit/Pytket-style)";
  case CircuitOptimizerKind::CliffordTCancel:
    return "CliffordT-cancel (Feynman -toCliffordT-style)";
  case CircuitOptimizerKind::RotationMerging:
    return "Rotation-merging (VOQC/Pytket-ZX-style)";
  case CircuitOptimizerKind::ToffoliCancel:
    return "Toffoli-cancel (Feynman -mctExpand-style)";
  case CircuitOptimizerKind::ExhaustiveCancel:
    return "Exhaustive-cancel (QuiZX-style)";
  }
  return "?";
}

circuit::Circuit applyCircuitOptimizer(const circuit::Circuit &MCXCircuit,
                                       CircuitOptimizerKind Kind,
                                       qopt::OptStats *Stats,
                                       support::DiagnosticEngine *VerifyDiags,
                                       support::DiagnosticEngine *FaultDiags) {
  using circuit::Circuit;
  // Per-pass hook: every pass (including the decomposition steps) runs
  // inside a named trace span carrying its gate-count and OptStats work
  // deltas as args, and its output goes through the structural circuit
  // verifier (when VerifyDiags is set) before the next pass consumes it,
  // so a pass that corrupts the gate stream is blamed by name instead of
  // surfacing as a downstream equivalence failure. The pass name is also
  // a fault-injection site (alloc faults unwind to the stage wrapper;
  // diag faults report into FaultDiags and skip the pass), and each
  // pass's output is charged against the governor's gate cap.
  auto runPass = [&](const char *Pass, const Circuit &In,
                     auto Fn) -> Circuit {
    support::faultAlloc(Pass);
    if (FaultDiags && support::faultDiag(Pass, *FaultDiags))
      return In;
    obs::Span Sp(Pass);
    qopt::OptStats Before = Stats ? *Stats : qopt::OptStats();
    Circuit Out = Fn(In);
    Sp.arg("gates_in", static_cast<int64_t>(In.Gates.size()));
    Sp.arg("gates_out", static_cast<int64_t>(Out.Gates.size()));
    if (Stats) {
      if (int64_t D = Stats->CancelledPairs - Before.CancelledPairs)
        Sp.arg("cancelled_pairs", D);
      if (int64_t D = Stats->WorklistVisits - Before.WorklistVisits)
        Sp.arg("worklist_visits", D);
      if (int64_t D = Stats->MergedRotations - Before.MergedRotations)
        Sp.arg("merged_rotations", D);
      if (int64_t D = Stats->EmittedRotations - Before.EmittedRotations)
        Sp.arg("emitted_rotations", D);
    }
    ++obs::Registry::global().counter("qopt.passes_run");
    support::Governor::pollGates(static_cast<int64_t>(Out.Gates.size()));
    if (VerifyDiags) {
      analysis::VerifyReport V = analysis::verifyCircuit(Out);
      recordVerifyMetrics(V);
      if (!V.ok())
        V.reportTo(*VerifyDiags, Pass);
    }
    return Out;
  };
  auto decomposeCliffordT = [&](const Circuit &In) {
    return runPass("qopt/decompose-clifford+t", In,
                   [](const Circuit &C) { return decompose::toCliffordT(C); });
  };
  auto decomposeToffoli = [&](const Circuit &In) {
    return runPass("qopt/decompose-toffoli", In,
                   [](const Circuit &C) { return decompose::toToffoli(C); });
  };
  auto cancel = [&](const char *Pass, const Circuit &In,
                    qopt::CancelOptions Opts) {
    return runPass(Pass, In, [&](const Circuit &C) {
      return qopt::cancelAdjacentGates(C, Opts, Stats);
    });
  };
  auto fold = [&](const Circuit &In) {
    return runPass("qopt/phase-fold", In, [&](const Circuit &C) {
      return qopt::phaseFold(C, Stats);
    });
  };

  switch (Kind) {
  case CircuitOptimizerKind::None:
    return decomposeCliffordT(MCXCircuit);

  case CircuitOptimizerKind::Peephole: {
    // Decompose first, then a small-window inverse-pair peephole.
    Circuit CT = decomposeCliffordT(MCXCircuit);
    return cancel("qopt/cancel-peephole", CT,
                  qopt::CancelOptions::peephole());
  }

  case CircuitOptimizerKind::CliffordTCancel: {
    // Decompose first, then standard cancellation plus rotation merging
    // over the Clifford+T gates — the -toCliffordT pipeline shape.
    Circuit CT = decomposeCliffordT(MCXCircuit);
    Circuit Cancelled = cancel("qopt/cancel-standard", CT,
                               qopt::CancelOptions::standard());
    return fold(Cancelled);
  }

  case CircuitOptimizerKind::RotationMerging: {
    Circuit CT = decomposeCliffordT(MCXCircuit);
    return fold(CT);
  }

  case CircuitOptimizerKind::ToffoliCancel: {
    // Simplify in terms of Toffoli gates *before* translating to
    // Clifford+T (Section 8.3: the -mctExpand configuration).
    Circuit Toff = decomposeToffoli(MCXCircuit);
    Circuit Cancelled = cancel("qopt/cancel-standard", Toff,
                               qopt::CancelOptions::standard());
    return decomposeCliffordT(Cancelled);
  }

  case CircuitOptimizerKind::ExhaustiveCancel: {
    // Unbounded-lookahead fixpoint cancellation at the Toffoli level,
    // then decomposition and rotation merging: stronger and much slower,
    // like QuiZX's global-structure discovery.
    Circuit Toff = decomposeToffoli(MCXCircuit);
    Circuit Cancelled = cancel("qopt/cancel-exhaustive", Toff,
                               qopt::CancelOptions::exhaustive());
    Circuit CT = decomposeCliffordT(Cancelled);
    Circuit Folded = fold(CT);
    return cancel("qopt/cancel-exhaustive", Folded,
                  qopt::CancelOptions::exhaustive());
  }
  }
  return decompose::toCliffordT(MCXCircuit);
}

double CompilationResult::stageSeconds(Stage S) const {
  for (const StageTiming &T : Stages)
    if (T.Which == S)
      return T.Seconds;
  return 0;
}

double CompilationResult::totalSeconds() const {
  double Total = 0;
  for (const StageTiming &T : Stages)
    Total += T.Seconds;
  return Total;
}

namespace {

/// Times one stage body and appends its StageTiming (wall-clock seconds,
/// heap allocations, and peak-RSS growth). The body returns true on
/// success; on failure the result's failed-stage marker is set.
///
/// Every stage also runs inside a trace span named after the stage (its
/// allocation and RSS work counters attach as span args; bodies taking an
/// `obs::Span &` can attach stage-specific ones like gate counts) and
/// publishes `stage.<name>.*` metrics into the global registry.
///
/// Robustness wrapper: the stage name is a fault-injection site, the
/// body runs under a catch for allocation failure (real bad_alloc or an
/// injected alloc fault both become a diagnosed stage failure instead
/// of a crash), and a tripped governor converts the checkpoint bail-out
/// into one `resource-limit` diagnostic + CompilationResult::LimitHit.
template <typename Fn>
bool runStage(CompilationResult &R, Stage S, Fn &&Body) {
  obs::Span Sp(stageName(S));
  int64_t AllocsBefore = support::allocationCount();
  int64_t RSSBefore = support::peakRSSKb();
  auto Start = std::chrono::steady_clock::now();
  bool OK;
  try {
    support::faultAlloc(stageName(S));
    if (support::faultDiag(stageName(S), R.Diags)) {
      OK = false;
    } else if constexpr (std::is_invocable_v<Fn &, obs::Span &>) {
      OK = Body(Sp);
    } else {
      OK = Body();
    }
  } catch (const std::bad_alloc &) {
    R.Diags.error(std::string("out of memory in the ") + stageName(S) +
                  " stage");
    OK = false;
  } catch (const std::exception &E) {
    R.Diags.error(std::string("internal error in the ") + stageName(S) +
                  " stage: " + E.what());
    OK = false;
  }
  if (auto *G = support::Governor::current(); G && G->exceeded()) {
    G->report(R.Diags);
    R.LimitHit = G->limit();
    OK = false;
  }
  auto End = std::chrono::steady_clock::now();
  StageTiming T;
  T.Which = S;
  T.Seconds = std::chrono::duration<double>(End - Start).count();
  T.Allocs = support::allocationCount() - AllocsBefore;
  T.PeakRSSDeltaKb = support::peakRSSKb() - RSSBefore;
  R.Stages.push_back(T);
  Sp.arg("allocs", T.Allocs);
  Sp.arg("peak_rss_delta_kb", T.PeakRSSDeltaKb);
  Sp.arg("ok", OK);
  auto &Reg = obs::Registry::global();
  std::string Prefix = std::string("stage.") + stageName(S);
  Reg.histogram(Prefix + ".seconds").observe(T.Seconds);
  Reg.counter(Prefix + ".allocs") += T.Allocs;
  ++Reg.counter(Prefix + ".runs");
  if (!OK)
    R.Failed = S;
  return OK;
}

} // namespace

CompilationResult CompilationPipeline::run(std::string_view Source) const {
  CompilationResult R;
  // Arm a governor for this run's budgets unless the caller (spirec, the
  // batch driver) already installed one covering a wider scope — nested
  // compiles share the outermost token.
  support::Governor RunGov(Options.Limits);
  support::GovernorScope GovScope(support::Governor::current() ? nullptr
                                                               : &RunGov);
  ++obs::Registry::global().counter("pipeline.runs");
  auto stopAfter = [&](Stage S) {
    return static_cast<int>(Options.StopAfter) < static_cast<int>(S);
  };

  if (Options.Input == InputKind::Circuit) {
    // Circuit-input axis: the circuit-compile stage parses interchange
    // text instead of compiling IR; qopt, legalize, and estimate then
    // run over it exactly as they would over a compiled circuit.
    if (stopAfter(Stage::CircuitCompile))
      return R;
    bool OK = runStage(R, Stage::CircuitCompile, [&](obs::Span &Sp) {
      std::optional<circuit::Circuit> C =
          interchange::readCircuit(Source, Options.InputFormat, R.Diags);
      if (!C)
        return false;
      circuit::CompileResult Parsed;
      Parsed.Circ = std::move(*C);
      Parsed.Layout.NumQubits = Parsed.Circ.NumQubits;
      R.Compiled.emplace(std::move(Parsed));
      support::Governor::pollGates(
          static_cast<int64_t>(R.Compiled->Circ.Gates.size()));
      Sp.arg("gates", static_cast<int64_t>(R.Compiled->Circ.Gates.size()));
      Sp.arg("qubits", R.Compiled->Circ.NumQubits);
      if (Options.VerifyEach &&
          !verifyCircuitArtifact(R.Compiled->Circ, /*Layout=*/nullptr,
                                 R.Diags, "verify(circuit-compile)"))
        return false;
      return true;
    });
    if (!OK)
      return R;
    runBackendStages(R);
    return R;
  }

  // -- Parse. --------------------------------------------------------------
  bool OK = runStage(R, Stage::Parse, [&] {
    std::optional<ast::Program> P = frontend::parseProgram(Source, R.Diags);
    if (!P)
      return false;
    R.AST.emplace(std::move(*P));
    return true;
  });
  if (!OK || stopAfter(Stage::Typecheck))
    return R;

  // -- Typecheck (annotates the AST in place) and resolve the entry. -------
  OK = runStage(R, Stage::Typecheck, [&] {
    if (!sema::typeCheck(*R.AST, R.Diags))
      return false;
    if (!R.AST->findFunction(Options.Entry)) {
      R.Diags.error("entry function '" + Options.Entry + "' not found");
      return false;
    }
    return true;
  });
  if (!OK || stopAfter(Stage::Lower))
    return R;

  // -- Lower to core IR at the requested size. -----------------------------
  OK = runStage(R, Stage::Lower, [&] {
    lowering::LowerOptions LowerOpts;
    LowerOpts.HeapCells = Options.Target.HeapCells;
    LowerOpts.MaxInlineInstances = Options.MaxInlineInstances;
    LowerOpts.MaxInlineDepth = Options.MaxInlineDepth;
    LowerOpts.AssumeTypeChecked = true; // The typecheck stage just ran.
    std::optional<ir::CoreProgram> Core = lowering::lowerProgram(
        *R.AST, Options.Entry, Options.Size, R.Diags, LowerOpts);
    if (!Core)
      return false;
    R.Core.emplace(std::move(*Core));
    if (Options.VerifyEach &&
        !verifyIrArtifact(*R.Core, Options.Target, R.Diags, "verify(lower)"))
      return false;
    return true;
  });
  if (!OK || stopAfter(Stage::SpireOpt))
    return R;

  // -- Spire's program-level rewrites (Section 6). -------------------------
  OK = runStage(R, Stage::SpireOpt, [&] {
    R.Optimized.emplace(opt::optimizeProgram(*R.Core, Options.Spire));
    if (Options.VerifyEach &&
        !verifyIrArtifact(*R.Optimized, Options.Target, R.Diags,
                          "verify(spire-opt)"))
      return false;
    return true;
  });
  if (!OK)
    return R;

  // -- Circuit compilation (Section 7). ------------------------------------
  if (Options.BuildCircuit && !stopAfter(Stage::CircuitCompile)) {
    runStage(R, Stage::CircuitCompile, [&](obs::Span &Sp) {
      R.Compiled.emplace(
          circuit::compileToCircuit(*R.Optimized, Options.Target));
      support::Governor::pollGates(
          static_cast<int64_t>(R.Compiled->Circ.Gates.size()));
      Sp.arg("gates", static_cast<int64_t>(R.Compiled->Circ.Gates.size()));
      Sp.arg("qubits", R.Compiled->Circ.NumQubits);
      return !Options.VerifyEach ||
             verifyCircuitArtifact(R.Compiled->Circ, &R.Compiled->Layout,
                                   R.Diags, "verify(circuit-compile)");
    });
  }

  runBackendStages(R);
  return R;
}

/// The stages downstream of circuit production, shared by the Tower and
/// circuit input axes: the qopt baselines, gate-set legalization, and
/// cost analysis.
void CompilationPipeline::runBackendStages(CompilationResult &R) const {
  auto stopAfter = [&](Stage S) {
    return static_cast<int>(Options.StopAfter) < static_cast<int>(S);
  };

  // -- The qopt stage consumes the MCX-level circuit and produces
  // Clifford+T, standing in for the Section 8.3 baselines.
  if (R.Compiled && Options.CircuitOpt != CircuitOptimizerKind::None &&
      !stopAfter(Stage::Qopt) && !R.Failed) {
    runStage(R, Stage::Qopt, [&](obs::Span &Sp) {
      qopt::OptStats Stats;
      unsigned ErrorsBefore = R.Diags.errorCount();
      R.Final.emplace(applyCircuitOptimizer(
          R.Compiled->Circ, Options.CircuitOpt, &Stats,
          Options.VerifyEach ? &R.Diags : nullptr, &R.Diags));
      R.QoptStats = Stats;
      Sp.arg("gates_in", static_cast<int64_t>(R.Compiled->Circ.Gates.size()));
      Sp.arg("gates_out", static_cast<int64_t>(R.Final->Gates.size()));
      Sp.arg("cancelled_pairs", Stats.CancelledPairs);
      Sp.arg("merged_rotations", Stats.MergedRotations);
      auto &Reg = obs::Registry::global();
      Reg.counter("qopt.cancelled_pairs") += Stats.CancelledPairs;
      Reg.counter("qopt.cancel_passes") += Stats.CancelPasses;
      Reg.counter("qopt.worklist_visits") += Stats.WorklistVisits;
      Reg.counter("qopt.merged_rotations") += Stats.MergedRotations;
      Reg.counter("qopt.emitted_rotations") += Stats.EmittedRotations;
      if (R.Diags.errorCount() > ErrorsBefore)
        return false; // A per-pass verify hook or injected fault fired.
      if (Options.VerifyEach) {
        const circuit::CircuitLayout *Layout =
            Options.Input == InputKind::Tower ? &R.Compiled->Layout
                                              : nullptr;
        if (!verifyCircuitArtifact(*R.Final, Layout, R.Diags,
                                   "verify(qopt)"))
          return false;
      }
      return true;
    });
  }

  // -- Gate-set legalization onto the declared target basis. Conformant
  // circuits skip the stage (and the copy) entirely.
  if (R.Compiled && Options.Basis && !stopAfter(Stage::Legalize) &&
      !R.Failed && !interchange::conformsTo(*R.finalCircuit(),
                                            *Options.Basis)) {
    bool OK = runStage(R, Stage::Legalize, [&](obs::Span &Sp) {
      Sp.arg("gates_in",
             static_cast<int64_t>(R.finalCircuit()->Gates.size()));
      std::optional<circuit::Circuit> Legal =
          interchange::legalize(*R.finalCircuit(), *Options.Basis, R.Diags);
      if (!Legal)
        return false;
      R.Final.emplace(std::move(*Legal));
      support::Governor::pollGates(
          static_cast<int64_t>(R.Final->Gates.size()));
      Sp.arg("gates_out", static_cast<int64_t>(R.Final->Gates.size()));
      if (Options.VerifyEach) {
        const circuit::CircuitLayout *Layout =
            Options.Input == InputKind::Tower ? &R.Compiled->Layout
                                              : nullptr;
        if (!verifyCircuitArtifact(*R.Final, Layout, R.Diags,
                                   "verify(legalize)"))
          return false;
      }
      return true;
    });
    if (!OK)
      return;
  }

  // -- Cost analysis (Section 5). Cost figures need the lowered IR,
  // which the circuit axis does not have.
  if (Options.AnalyzeCost && R.Optimized && !stopAfter(Stage::Estimate) &&
      !R.Failed) {
    runStage(R, Stage::Estimate, [&] {
      if (Options.AnalyzeUnoptimized)
        R.UnoptimizedCost = costmodel::analyzeProgram(*R.Core, Options.Target);
      R.OptimizedCost = costmodel::analyzeProgram(*R.Optimized, Options.Target);
      return true;
    });
  }
}

void CompilationPipeline::renderFinalCircuit(const CompilationResult &R,
                                             support::OutputSink &Out) const {
  const circuit::Circuit *Circ = R.finalCircuit();
  if (!Circ)
    return;
  // Layouts describe MCX-level wires only; decomposition, qopt, and
  // legalization add ancillas, so attach the layout exactly when the
  // final circuit is the compiled one. The circuit axis parses into an
  // empty layout, which stays unattached.
  const circuit::CircuitLayout *Layout = nullptr;
  if (!R.Final && R.Compiled && Options.Input == InputKind::Tower)
    Layout = &R.Compiled->Layout;
  interchange::writeCircuit(*Circ, Options.OutputFormat, Layout, Out);
}

std::string
CompilationPipeline::renderFinalCircuit(const CompilationResult &R) const {
  std::string Text;
  support::StringSink Out(Text);
  renderFinalCircuit(R, Out);
  Out.flush();
  return Text;
}

std::string renderMetricsJson(const CompilationResult &R) {
  obs::publishProcessMetrics();
  obs::JsonWriter W;
  W.beginObject();
  W.kv("schema", "spire-metrics-v1");
  // A resource-limit trip after the last stage (emission caps, the
  // equivalence sweep) leaves Failed unset but is still not a success.
  W.kv("succeeded", R.succeeded() && !R.LimitHit);
  if (R.Failed)
    W.kv("failed_stage", stageName(*R.Failed));
  if (R.LimitHit)
    W.kv("limit_hit", support::resourceLimitName(*R.LimitHit));
  W.kv("total_seconds", R.totalSeconds(), 9);
  W.kv("errors", static_cast<int64_t>(R.Diags.errorCount()));
  W.key("stages");
  W.beginArray();
  for (const StageTiming &T : R.Stages) {
    W.beginObject();
    W.kv("stage", stageName(T.Which));
    W.kv("seconds", T.Seconds, 9);
    W.kv("allocs", T.Allocs);
    W.kv("peak_rss_delta_kb", T.PeakRSSDeltaKb);
    W.endObject();
  }
  W.endArray();
  if (R.QoptStats) {
    W.key("qopt_stats");
    W.beginObject();
    W.kv("cancelled_pairs", R.QoptStats->CancelledPairs.value());
    W.kv("cancel_passes", R.QoptStats->CancelPasses.value());
    W.kv("worklist_visits", R.QoptStats->WorklistVisits.value());
    W.kv("merged_rotations", R.QoptStats->MergedRotations.value());
    W.kv("emitted_rotations", R.QoptStats->EmittedRotations.value());
    W.endObject();
  }
  W.key("metrics");
  obs::writeMetricsObject(W, obs::Registry::global().snapshot());
  W.endObject();
  return W.take();
}

} // namespace spire::driver
