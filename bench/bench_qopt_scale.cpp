//===----------------------------------------------------------------------===//
///
/// \file
/// Circuit optimization at scale: sweeps generated Clifford+T circuits
/// from 10k to 1M gates through the netlist optimizer hot path
/// (cancelAdjacentGates + phaseFold) and reports throughput per pass.
/// A compiled-circuit point folds the paper's `length` benchmark at n=10
/// after Clifford+T decomposition (the Section 8.3 `rotation` input):
/// ~1.2M gates over ~400K distinct wire parities, where the random
/// 64-qubit workload has few.
///
/// The pre-PR-4 cancellation was O(rounds x gates x lookahead) with a
/// full circuit copy per round, and phase folding keyed a std::map on
/// parity vectors; the netlist worklist and the hashed parity table make
/// both near-linear. This bench is the regression guard: it fails
/// (non-zero exit) if throughput at the deep end collapses superlinearly
/// against the best observed rate, if the optimized circuit is worse
/// than the reference passes produce, or if the stats stop accounting
/// for the removed gates. The compiled point adds two checks that do not
/// depend on the machine's speed: the fold must allocate at most
/// 8 x qubits + 64 times, and its output must equal the reference
/// fold's gate for gate. The same input also runs through the standard
/// and peephole cancellation configurations: their outputs must match
/// the digests recorded before the partner search became wire-indexed,
/// and the Clifford+T decomposition feeding them may allocate at most 64
/// times.
///
/// Results are also written as JSON (default `BENCH_qopt.json`, or
/// argv[1]) — the first point of the repo's perf trajectory; pretty-print
/// or diff runs with `tools/bench_report.py`.
///
//===----------------------------------------------------------------------===//

#include "QoptReference.h"
#include "benchmarks/Benchmarks.h"
#include "benchmarks/Harness.h"
#include "decompose/Decompose.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "qopt/Passes.h"
#include "support/AllocStats.h"
#include "support/Hash.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace spire;
using namespace spire::circuit;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

// Deterministic across libstdc++ versions (this workload pins CI
// behavior).
using support::splitMix64;

constexpr unsigned WorkloadQubits = 64;

/// A random Clifford+T circuit with realistic optimizer material: CNOTs
/// and Toffolis, phases, sparse H barriers, and ~18% adjacent duplicate
/// pairs (what decomposed uncompute structure looks like to the
/// cancellation pass).
Circuit makeWorkload(uint64_t Seed, size_t NumGates) {
  uint64_t Rng = Seed;
  Circuit C;
  C.NumQubits = WorkloadQubits;
  C.Gates.reserve(NumGates);
  auto qubit = [&] {
    return static_cast<Qubit>(splitMix64(Rng) % WorkloadQubits);
  };
  while (C.Gates.size() < NumGates) {
    Qubit T = qubit();
    uint64_t R = splitMix64(Rng) % 100;
    if (R < 30) {
      Qubit A = qubit();
      if (A == T)
        A = (A + 1) % WorkloadQubits;
      C.addX(T, {A});
    } else if (R < 45) {
      C.add(Gate(splitMix64(Rng) % 2 ? GateKind::T : GateKind::Tdg, T));
    } else if (R < 55) {
      uint64_t K = splitMix64(Rng) % 3;
      C.add(Gate(K == 0 ? GateKind::S : K == 1 ? GateKind::Sdg
                                                : GateKind::Z,
                 T));
    } else if (R < 62) {
      C.addH(T);
    } else if (R < 80 && !C.Gates.empty()) {
      C.Gates.push_back(C.Gates.back()); // Adjacent cancellable pair.
    } else if (R < 92) {
      C.addX(T);
    } else {
      Qubit A = (T + 1 + splitMix64(Rng) % (WorkloadQubits - 1)) %
                WorkloadQubits;
      Qubit B = (T + 1 + splitMix64(Rng) % (WorkloadQubits - 1)) %
                WorkloadQubits;
      if (B == A)
        B = (B + 1) % WorkloadQubits == T ? (B + 2) % WorkloadQubits
                                          : (B + 1) % WorkloadQubits;
      C.addX(T, {A, B});
    }
  }
  return C;
}

/// Nested compute–uncompute mirror: a chain of pairwise non-commuting
/// CNOTs followed by its own reversal — the shape the paper compiler's
/// `appendReversed` uncomputation emits, and the reference pass's worst
/// case: every copy-and-compact round peels only the innermost adjacent
/// pair, so it needs gates/2 rounds (quadratic) where the netlist
/// worklist cascades through the whole onion in one pass (linear).
Circuit makeUncomputeLadder(size_t NumGates) {
  Circuit C;
  C.NumQubits = WorkloadQubits;
  C.Gates.reserve(NumGates);
  size_t Half = NumGates / 2;
  for (size_t I = 0; I != Half; ++I) {
    Qubit Ctl = static_cast<Qubit>(I % WorkloadQubits);
    C.addX((Ctl + 1) % WorkloadQubits, {Ctl});
  }
  for (size_t I = Half; I-- > 0;)
    C.Gates.push_back(C.Gates[I]);
  return C;
}

/// Wire-disjoint nested mirror: X(0)..X(L-1) X(L-1)..X(0), one wire per
/// layer. No pair shares a wire, so cancellation reach comes entirely
/// from lookahead budget freed by inner removals — the shape that
/// punishes an engine which only re-activates wire-neighbors (each
/// re-seed pass would peel just ~lookahead/2 layers). The worklist also
/// re-enqueues global-sequence neighbors, so this cancels to empty in
/// one cascade.
Circuit makeDisjointNest(size_t NumGates) {
  size_t Half = NumGates / 2;
  Circuit C;
  C.NumQubits = static_cast<unsigned>(Half);
  C.Gates.reserve(2 * Half);
  for (size_t I = 0; I != Half; ++I)
    C.addX(static_cast<Qubit>(I));
  for (size_t I = Half; I-- > 0;)
    C.addX(static_cast<Qubit>(I));
  return C;
}

struct Row {
  int64_t Gates = 0;
  int64_t GatesOut = 0;
  int64_t TIn = 0, TOut = 0;
  double CancelSeconds = 0, FoldSeconds = 0;
  int64_t CancelledPairs = 0, MergedRotations = 0;

  double cancelRate() const {
    return Gates / (CancelSeconds > 0 ? CancelSeconds : 1e-9);
  }
  double foldRate() const {
    return Gates / (FoldSeconds > 0 ? FoldSeconds : 1e-9);
  }
};

bool sweepPoint(size_t NumGates, Row &Out) {
  Circuit C = makeWorkload(/*Seed=*/1, NumGates);
  Out.Gates = static_cast<int64_t>(C.Gates.size());
  Out.TIn = countGates(C).TComplexity;

  qopt::OptStats Stats;
  auto StartCancel = std::chrono::steady_clock::now();
  Circuit Cancelled =
      qopt::cancelAdjacentGates(C, qopt::CancelOptions::standard(), &Stats);
  Out.CancelSeconds = secondsSince(StartCancel);

  auto StartFold = std::chrono::steady_clock::now();
  Circuit Folded = qopt::phaseFold(Cancelled, &Stats);
  Out.FoldSeconds = secondsSince(StartFold);

  Out.GatesOut = static_cast<int64_t>(Folded.Gates.size());
  Out.TOut = countGates(Folded).TComplexity;
  Out.CancelledPairs = Stats.CancelledPairs;
  Out.MergedRotations = Stats.MergedRotations;

  if (Out.TOut > Out.TIn) {
    std::fprintf(stderr, "%lld gates: optimizer INCREASED T-complexity "
                         "%lld -> %lld\n",
                 static_cast<long long>(Out.Gates),
                 static_cast<long long>(Out.TIn),
                 static_cast<long long>(Out.TOut));
    return false;
  }
  if (static_cast<int64_t>(C.Gates.size()) -
          static_cast<int64_t>(Cancelled.Gates.size()) !=
      2 * Stats.CancelledPairs) {
    std::fprintf(stderr, "%lld gates: stats do not account for the "
                         "removed gates\n",
                 static_cast<long long>(Out.Gates));
    return false;
  }

  std::printf("%9lld %9lld %9.3f %12.0f %8.3f %12.0f %10lld %9lld\n",
              static_cast<long long>(Out.Gates),
              static_cast<long long>(Out.GatesOut), Out.CancelSeconds,
              Out.cancelRate(), Out.FoldSeconds, Out.foldRate(),
              static_cast<long long>(Out.CancelledPairs),
              static_cast<long long>(Out.MergedRotations));
  return true;
}

/// Throughput at the deep end must stay within 4x of the best observed
/// rate — a quadratic pass degrades ~50x over this sweep.
bool linear(const char *Label, const std::vector<Row> &Rows,
            double (Row::*Rate)() const) {
  double Best = 0;
  for (const Row &R : Rows)
    Best = std::max(Best, (R.*Rate)());
  double LastRate = (Rows.back().*Rate)();
  bool OK = LastRate * 4 >= Best;
  std::printf("%s: best %.0f gates/sec; %.0f gates/sec at %lld gates -> "
              "%s\n",
              Label, Best, LastRate,
              static_cast<long long>(Rows.back().Gates),
              OK ? "scales linearly (yes)" : "superlinear collapse (NO)");
  return OK;
}

/// One netlist-pass point of a nest sweep (`Make` builds the circuit):
/// the whole onion must cancel to the empty circuit, in one worklist
/// cascade.
bool ladderPoint(Circuit (*Make)(size_t), size_t NumGates, Row &Out) {
  Circuit C = Make(NumGates);
  Out.Gates = static_cast<int64_t>(C.Gates.size());
  qopt::OptStats Stats;
  auto Start = std::chrono::steady_clock::now();
  Circuit Cancelled =
      qopt::cancelAdjacentGates(C, qopt::CancelOptions::standard(), &Stats);
  Out.CancelSeconds = secondsSince(Start);
  Out.GatesOut = static_cast<int64_t>(Cancelled.Gates.size());
  Out.CancelledPairs = Stats.CancelledPairs;
  if (!Cancelled.Gates.empty()) {
    std::fprintf(stderr, "%lld-gate uncompute ladder left %lld gates "
                         "uncancelled\n",
                 static_cast<long long>(Out.Gates),
                 static_cast<long long>(Out.GatesOut));
    return false;
  }
  std::printf("%9lld %9lld %9.3f %12.0f %10lld\n",
              static_cast<long long>(Out.Gates),
              static_cast<long long>(Out.GatesOut), Out.CancelSeconds,
              Out.cancelRate(),
              static_cast<long long>(Out.CancelledPairs));
  return true;
}

/// The measured "before": the pre-netlist reference pass on the ladder,
/// with its round cap lifted so it finishes the job the netlist pass
/// does in one cascade. Quadratic — keep the sizes small.
void referenceLadderPoint(size_t NumGates, double &RefSeconds) {
  Circuit C = makeUncomputeLadder(NumGates);
  qopt::CancelOptions Uncapped = qopt::CancelOptions::standard();
  Uncapped.MaxRounds = static_cast<unsigned>(NumGates); // rounds = gates/2
  auto Start = std::chrono::steady_clock::now();
  Circuit Out = qopt::cancelAdjacentGatesReference(C, Uncapped);
  RefSeconds = secondsSince(Start);
  std::printf("%9lld %9zu %9.3f %12.0f   (reference, uncapped rounds)\n",
              static_cast<long long>(NumGates), Out.Gates.size(),
              RefSeconds,
              NumGates / (RefSeconds > 0 ? RefSeconds : 1e-9));
}

/// Random-workload cross-check: the netlist fixpoint must be at least as
/// strong as the reference passes' output at the small end.
bool referenceRandomPoint(size_t NumGates, const Row &NewRow,
                          double &RefSeconds, double &Speedup) {
  Circuit C = makeWorkload(/*Seed=*/1, NumGates);
  auto Start = std::chrono::steady_clock::now();
  Circuit Cancelled =
      qopt::cancelAdjacentGatesReference(C, qopt::CancelOptions::standard());
  Circuit Folded = qopt::phaseFoldReference(Cancelled);
  RefSeconds = secondsSince(Start);
  double NewSeconds = NewRow.CancelSeconds + NewRow.FoldSeconds;
  Speedup = RefSeconds / (NewSeconds > 0 ? NewSeconds : 1e-9);

  if (static_cast<int64_t>(Folded.Gates.size()) < NewRow.GatesOut) {
    std::fprintf(stderr, "netlist path lost optimizations: %zu gates vs "
                         "reference %zu\n",
                 static_cast<size_t>(NewRow.GatesOut), Folded.Gates.size());
    return false;
  }
  std::printf("\nreference (pre-netlist) passes at %lld random gates: "
              "%.3f s (netlist path: %.3f s)\n",
              static_cast<long long>(NumGates), RefSeconds, NewSeconds);
  return true;
}

/// One cancellation configuration run on the compiled circuit.
struct CompiledCancel {
  const char *Name;
  qopt::CancelOptions Options;
  uint64_t RecordedHash; ///< gateDigest of the output, recorded.
  double Seconds = 0;
  int64_t GatesOut = 0;
  int64_t Visits = 0;
  int64_t Pairs = 0;
  bool MatchesRecorded = false;
};

/// A digest of a circuit's gates, in order.
uint64_t gateDigest(const Circuit &C) {
  uint64_t H = support::mix64(C.NumQubits);
  for (const Gate &G : C.Gates) {
    H = support::mix64(H ^ static_cast<uint64_t>(G.Kind));
    H = support::mix64(H ^ G.Target);
    for (Qubit Q : G.Controls)
      H = support::mix64(H ^ Q);
    H = support::mix64(H ^ 0xffffffffu); // End of the control list.
  }
  return H;
}

/// Clifford+T decomposition of the compiled circuit may allocate its
/// output, not its gates.
constexpr int64_t DecomposeAllocationBudget = 64;

/// The compiled-circuit point: decomposition, the cancellation
/// configurations, and the fold.
struct CompiledRow {
  int64_t Size = 10;
  int64_t Qubits = 0;
  int64_t Gates = 0;
  int64_t GatesOut = 0;
  double DecomposeSeconds = 0;
  int64_t DecomposeAllocations = 0;
  CompiledCancel Cancels[2] = {
      {"standard", qopt::CancelOptions::standard(), 0x679273639ab64aacull},
      {"peephole", qopt::CancelOptions::peephole(), 0x3c587e215ed959c8ull},
  };
  double FoldSeconds = 0;
  double ReferenceSeconds = 0; ///< phaseFoldReference on the same input.
  int64_t Allocations = 0;
  int64_t AllocationBudget = 0;
  int64_t MergedRotations = 0;
  int64_t EmittedRotations = 0;
  bool MatchesReference = false;

  double foldRate() const {
    return Gates / (FoldSeconds > 0 ? FoldSeconds : 1e-9);
  }
};

/// Decomposes `length` at n=10 to Clifford+T and cancels it under each
/// configuration of `Out.Cancels`, checking the decomposition's heap
/// allocations and each output against its recorded digest.
bool compiledCancelPoint(const Circuit &MCX, Circuit &CT, CompiledRow &Out) {
  int64_t AllocsBefore = support::allocationCount();
  auto Start = std::chrono::steady_clock::now();
  CT = decompose::toCliffordT(MCX);
  Out.DecomposeSeconds = secondsSince(Start);
  Out.DecomposeAllocations = support::allocationCount() - AllocsBefore;
  Out.Qubits = CT.NumQubits;
  Out.Gates = static_cast<int64_t>(CT.Gates.size());

  bool OK = true;
  for (CompiledCancel &K : Out.Cancels) {
    qopt::OptStats Stats;
    Start = std::chrono::steady_clock::now();
    Circuit Cancelled = qopt::cancelAdjacentGates(CT, K.Options, &Stats);
    K.Seconds = secondsSince(Start);
    K.GatesOut = static_cast<int64_t>(Cancelled.Gates.size());
    K.Visits = Stats.WorklistVisits;
    K.Pairs = Stats.CancelledPairs;
    uint64_t Digest = gateDigest(Cancelled);
    K.MatchesRecorded = Digest == K.RecordedHash;
    std::printf("%9s %9lld %9lld %9.3f %12.0f %10lld %8lld %s\n", K.Name,
                static_cast<long long>(Out.Gates),
                static_cast<long long>(K.GatesOut), K.Seconds,
                Out.Gates / (K.Seconds > 0 ? K.Seconds : 1e-9),
                static_cast<long long>(K.Visits),
                static_cast<long long>(K.Pairs),
                K.MatchesRecorded ? "yes" : "NO");
    if (!K.MatchesRecorded) {
      std::fprintf(stderr, "compiled %s cancellation output digest "
                           "0x%016llx differs from the recorded 0x%016llx\n",
                   K.Name, static_cast<unsigned long long>(Digest),
                   static_cast<unsigned long long>(K.RecordedHash));
      OK = false;
    }
  }
  std::printf("decompose: %.3f s, %lld allocations (budget %lld)\n",
              Out.DecomposeSeconds,
              static_cast<long long>(Out.DecomposeAllocations),
              static_cast<long long>(DecomposeAllocationBudget));
  if (Out.DecomposeAllocations > DecomposeAllocationBudget) {
    std::fprintf(stderr, "compiled decomposition made %lld allocations, "
                         "over the budget of %lld\n",
                 static_cast<long long>(Out.DecomposeAllocations),
                 static_cast<long long>(DecomposeAllocationBudget));
    OK = false;
  }
  return OK;
}

/// Folds the Clifford+T `length` circuit, counting the fold's heap
/// allocations, and checks it against the reference fold.
bool compiledFoldPoint(const Circuit &CT, CompiledRow &Out) {
  Out.AllocationBudget = 8 * Out.Qubits + 64;

  qopt::OptStats Stats;
  int64_t AllocsBefore = support::allocationCount();
  auto Start = std::chrono::steady_clock::now();
  Circuit Folded = qopt::phaseFold(CT, &Stats);
  Out.FoldSeconds = secondsSince(Start);
  Out.Allocations = support::allocationCount() - AllocsBefore;
  Out.GatesOut = static_cast<int64_t>(Folded.Gates.size());
  Out.MergedRotations = Stats.MergedRotations;
  Out.EmittedRotations = Stats.EmittedRotations;
  Start = std::chrono::steady_clock::now();
  Circuit Reference = qopt::phaseFoldReference(CT);
  Out.ReferenceSeconds = secondsSince(Start);
  Out.MatchesReference = Folded.Gates == Reference.Gates;

  std::printf("%9lld %7lld %9lld %8.3f %12.0f %7.3f %8lld %8lld %9lld %s\n",
              static_cast<long long>(Out.Gates),
              static_cast<long long>(Out.Qubits),
              static_cast<long long>(Out.GatesOut), Out.FoldSeconds,
              Out.foldRate(), Out.ReferenceSeconds,
              static_cast<long long>(Out.Allocations),
              static_cast<long long>(Out.AllocationBudget),
              static_cast<long long>(Out.MergedRotations),
              Out.MatchesReference ? "yes" : "NO");
  if (Out.Allocations > Out.AllocationBudget) {
    std::fprintf(stderr, "compiled fold made %lld allocations, over the "
                         "8 x qubits + 64 budget of %lld\n",
                 static_cast<long long>(Out.Allocations),
                 static_cast<long long>(Out.AllocationBudget));
    return false;
  }
  if (!Out.MatchesReference) {
    std::fprintf(stderr, "compiled fold differs from the reference fold\n");
    return false;
  }
  return true;
}

void writeJson(const std::string &Path, const std::vector<Row> &Random,
               const std::vector<Row> &Ladder, const std::vector<Row> &Nest,
               const std::vector<std::pair<size_t, double>> &RefLadder,
               double RefRandomSeconds, double LadderSpeedup,
               const CompiledRow &Compiled, bool CancelOK, bool FoldOK,
               bool LadderOK, bool NestOK) {
  // Unified emission path (obs::JsonWriter + metrics snapshot); point
  // keys unchanged so committed trajectory files diff cleanly.
  obs::JsonWriter W;
  W.beginObject();
  W.kv("schema", "spire-bench-v1");
  W.kv("bench", "qopt_scale");
  W.kv("qubits", WorkloadQubits);
  W.key("random_points");
  W.beginArray();
  for (const Row &R : Random) {
    W.beginObject();
    W.kv("gates", R.Gates);
    W.kv("gates_out", R.GatesOut);
    W.kv("cancel_seconds", R.CancelSeconds, 6);
    W.kv("cancel_gates_per_sec", static_cast<int64_t>(R.cancelRate()));
    W.kv("fold_seconds", R.FoldSeconds, 6);
    W.kv("fold_gates_per_sec", static_cast<int64_t>(R.foldRate()));
    W.kv("t_in", R.TIn);
    W.kv("t_out", R.TOut);
    W.kv("cancelled_pairs", R.CancelledPairs);
    W.kv("merged_rotations", R.MergedRotations);
    W.endObject();
  }
  W.endArray();
  auto writeCancelRows = [&](const char *Name, const std::vector<Row> &Rows) {
    W.key(Name);
    W.beginArray();
    for (const Row &R : Rows) {
      W.beginObject();
      W.kv("gates", R.Gates);
      W.kv("cancel_seconds", R.CancelSeconds, 6);
      W.kv("cancel_gates_per_sec", static_cast<int64_t>(R.cancelRate()));
      W.endObject();
    }
    W.endArray();
  };
  writeCancelRows("ladder_points", Ladder);
  writeCancelRows("nest_points", Nest);
  W.key("reference_ladder_points");
  W.beginArray();
  for (const auto &[Gates, Seconds] : RefLadder) {
    W.beginObject();
    W.kv("gates", static_cast<uint64_t>(Gates));
    W.kv("cancel_seconds", Seconds, 6);
    W.endObject();
  }
  W.endArray();
  W.kv("reference_random_seconds", RefRandomSeconds, 6);
  // A one-point series, so tools/bench_report.py prints and diffs it.
  W.key("compiled_points");
  W.beginArray();
  W.beginObject();
  W.kv("benchmark", "length");
  W.kv("size", Compiled.Size);
  W.kv("qubits", Compiled.Qubits);
  W.kv("gates", Compiled.Gates);
  W.kv("gates_out", Compiled.GatesOut);
  W.kv("decompose_seconds", Compiled.DecomposeSeconds, 6);
  W.kv("decompose_allocations", Compiled.DecomposeAllocations);
  for (const CompiledCancel &K : Compiled.Cancels) {
    std::string Prefix = std::string("cancel_") + K.Name + "_";
    W.kv(Prefix + "seconds", K.Seconds, 6);
    W.kv(Prefix + "gates_out", K.GatesOut);
    W.kv(Prefix + "visits", K.Visits);
    W.kv(Prefix + "pairs", K.Pairs);
    W.kv(Prefix + "matches_recorded", K.MatchesRecorded);
  }
  W.kv("fold_seconds", Compiled.FoldSeconds, 6);
  W.kv("fold_gates_per_sec", static_cast<int64_t>(Compiled.foldRate()));
  W.kv("reference_fold_seconds", Compiled.ReferenceSeconds, 6);
  W.kv("fold_allocations", Compiled.Allocations);
  W.kv("fold_allocation_budget", Compiled.AllocationBudget);
  W.kv("merged_rotations", Compiled.MergedRotations);
  W.kv("emitted_rotations", Compiled.EmittedRotations);
  W.kv("matches_reference", Compiled.MatchesReference);
  W.endObject();
  W.endArray();
  std::string SpeedupKey =
      "ladder_speedup_at_" + std::to_string(RefLadder.back().first);
  W.kv(SpeedupKey, LadderSpeedup, 4);
  W.key("linear");
  W.beginObject();
  W.kv("cancel", CancelOK);
  W.kv("fold", FoldOK);
  W.kv("ladder", LadderOK);
  W.kv("nest", NestOK);
  W.endObject();
  W.key("metrics");
  obs::publishProcessMetrics();
  obs::writeMetricsObject(W, obs::Registry::global().snapshot());
  W.endObject();

  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return;
  }
  Out << W.str() << '\n';
  std::printf("wrote %s\n", Path.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  std::printf("== Circuit optimization at scale ==\n");
  std::printf("\n-- random clifford+t workload (~18%% adjacent "
              "duplicates) --\n");
  std::printf("%9s %9s %9s %12s %8s %12s %10s %9s\n", "gates", "out",
              "cancel s", "gates/sec", "fold s", "gates/sec", "pairs",
              "merged");

  const std::vector<size_t> Sizes = {10000, 30000, 100000, 300000, 1000000};
  std::vector<Row> Random;
  for (size_t Size : Sizes) {
    Row R;
    if (!sweepPoint(Size, R))
      return 1;
    Random.push_back(R);
  }

  double RefRandomSeconds = 0, RandomSpeedup = 0;
  if (!referenceRandomPoint(Sizes.front(), Random.front(), RefRandomSeconds,
                            RandomSpeedup))
    return 1;

  std::printf("\n-- compiled circuit: length n=10, clifford+t cancel --\n");
  std::printf("%9s %9s %9s %9s %12s %10s %8s %s\n", "config", "gates",
              "out", "cancel s", "gates/sec", "visits", "pairs", "=rec");
  driver::PipelineOptions Opts;
  Opts.BuildCircuit = true;
  Opts.AnalyzeCost = false;
  CompiledRow Compiled;
  driver::CompilationResult R = benchmarks::runPipelineOrDie(
      benchmarks::lengthBenchmark(), Compiled.Size, Opts);
  Circuit CT;
  if (!compiledCancelPoint(R.Compiled->Circ, CT, Compiled))
    return 1;
  std::printf("\n-- compiled circuit: length n=10, clifford+t fold --\n");
  std::printf("%9s %7s %9s %8s %12s %7s %8s %8s %9s %s\n", "gates",
              "qubits", "out", "fold s", "gates/sec", "ref s", "allocs",
              "budget", "merged", "=ref");
  if (!compiledFoldPoint(CT, Compiled))
    return 1;

  // The nested compute–uncompute onion: the netlist worklist cascades it
  // away in one linear pass; the reference needs gates/2 rounds.
  std::printf("\n-- uncompute-ladder workload (nested mirror pairs) --\n");
  std::printf("%9s %9s %9s %12s %10s\n", "gates", "out", "cancel s",
              "gates/sec", "pairs");
  std::vector<Row> Ladder;
  for (size_t Size : Sizes) {
    Row R;
    if (!ladderPoint(makeUncomputeLadder, Size, R))
      return 1;
    Ladder.push_back(R);
  }
  std::vector<std::pair<size_t, double>> RefLadder;
  for (size_t Size : {3000ul, 10000ul, 30000ul}) {
    double RefSeconds = 0;
    referenceLadderPoint(Size, RefSeconds);
    RefLadder.push_back({Size, RefSeconds});
  }
  // Speedup at the largest size the reference can stomach.
  double NetlistAtRefSize = 0;
  for (const Row &R : Ladder)
    if (static_cast<size_t>(R.Gates) == RefLadder.back().first)
      NetlistAtRefSize = R.CancelSeconds;
  if (NetlistAtRefSize == 0) {
    Row R;
    if (!ladderPoint(makeUncomputeLadder, RefLadder.back().first, R))
      return 1;
    NetlistAtRefSize = R.CancelSeconds;
  }
  double LadderSpeedup =
      RefLadder.back().second /
      (NetlistAtRefSize > 0 ? NetlistAtRefSize : 1e-9);
  std::printf("\nuncompute ladder at %zu gates: reference %.3f s, netlist "
              "%.3f s -> %.0fx faster\n",
              RefLadder.back().first, RefLadder.back().second,
              NetlistAtRefSize, LadderSpeedup);

  // Wire-disjoint nested pairs: cancellation reach comes only from
  // freed lookahead budget; the global-neighbor re-enqueue must keep
  // this linear (one cascade, two fixpoint passes) instead of one
  // re-seed pass per ~64 peeled layers.
  std::printf("\n-- disjoint-nest workload (no shared wires) --\n");
  std::printf("%9s %9s %9s %12s %10s\n", "gates", "out", "cancel s",
              "gates/sec", "pairs");
  std::vector<Row> Nest;
  for (size_t Size : Sizes) {
    Row R;
    if (!ladderPoint(makeDisjointNest, Size, R))
      return 1;
    Nest.push_back(R);
  }

  std::printf("\n");
  bool CancelOK = linear("cancel (random)", Random, &Row::cancelRate);
  bool FoldOK = linear("fold (random)", Random, &Row::foldRate);
  bool LadderOK = linear("cancel (ladder)", Ladder, &Row::cancelRate);
  bool NestOK = linear("cancel (disjoint nest)", Nest, &Row::cancelRate);

  writeJson(Argc > 1 ? Argv[1] : "BENCH_qopt.json", Random, Ladder, Nest,
            RefLadder, RefRandomSeconds, LadderSpeedup, Compiled, CancelOK,
            FoldOK, LadderOK, NestOK);
  return CancelOK && FoldOK && LadderOK && NestOK ? 0 : 1;
}
