//===----------------------------------------------------------------------===//
///
/// \file
/// spirec — command-line driver for the Spire/Tower compiler. A thin
/// argument-parsing shell over driver::Service, the one request path
/// every compile takes (single-input, --batch, and --serve mode). The
/// flags are documented once, in UsageText below (`spirec --help`), and
/// in docs/cli.md; keep the two in sync.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "driver/Pipeline.h"
#include "driver/Service.h"
#include "interchange/Interchange.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sim/Interpreter.h"
#include "support/ArtifactCache.h"
#include "support/FaultInjector.h"
#include "support/FileIO.h"
#include "support/Governor.h"
#include "support/Symbol.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

using namespace spire;

namespace {

struct Options {
  std::string InputPath;
  std::string CircuitInPath; ///< --qc-in / --qasm-in path.
  bool Report = false;
  bool DumpIR = false;
  bool Timings = false;
  bool Analyze = false;
  bool WantEmit = false; ///< --emit (or --basis / circuit-in) given.
  std::string OutputPath;
  std::string CheckEquivPath;
  /// Whether --check-equiv-samples was given explicitly: an explicit
  /// request above the circuits' state space clamps to an exhaustive
  /// sweep on classical circuits and is an error on non-classical ones
  /// (whose state-vector path cannot enumerate exhaustively); the
  /// default silently adapts to small circuits instead.
  bool CheckEquivSamplesSet = false;
  /// --check-equiv-samples: basis-state budget of the sampled modes.
  unsigned CheckEquivSamples = 32;
  std::optional<std::string> RunInputs;
  std::string CircuitOpt;
  std::string TraceJsonPath;   ///< --trace-json output path.
  std::string MetricsJsonPath; ///< --metrics-json output path.
  std::string BatchPath;       ///< --batch input-list path.
  int64_t BatchRetries = 0;    ///< --batch-retries count.
  std::string CacheDir;        ///< --cache-dir / SPIRE_CACHE_DIR.
  int64_t CacheMaxMb = 0;      ///< --cache-max-mb (0 = unlimited).
  std::string ServePath;       ///< --serve request source.
  driver::PipelineOptions Pipeline;
};

// Keep this text in sync with parseArgs and docs/cli.md.
const char UsageText[] =
    "usage: spirec <file.tower> --entry <fun> [--size N] [options]\n"
    "       spirec --qc-in <file.qc> | --qasm-in <file.qasm> [options]\n"
    "       spirec --batch <list> [options]\n"
    "       spirec --serve <fifo|file> [options]\n"
    "\n"
    "modes (combinable):\n"
    "  --report                  print the cost-model analysis before and\n"
    "                            after optimization\n"
    "  --emit qc|qasm3           write the compiled circuit in the given\n"
    "                            format (legacy levels mcx|toffoli|cliffordt\n"
    "                            mean .qc with --basis mcx|toffoli|cx)\n"
    "  --basis mcx|toffoli|cx    legalize the circuit onto a gate basis\n"
    "                            before emission\n"
    "  -o <path>                 output path for --emit (default: stdout)\n"
    "  --check-equiv <file>      check the final circuit is behaviorally\n"
    "                            equivalent to the circuit in <file>:\n"
    "                            exhaustive over all 2^n basis states for\n"
    "                            X-only circuits up to ~20 qubits, batched\n"
    "                            bit-sliced samples above, state-vector\n"
    "                            samples for non-classical circuits\n"
    "  --check-equiv-samples N   basis-state budget for the sampled modes\n"
    "                            (default 32; above the circuits' 2^qubits\n"
    "                            states it clamps to exhaustive, an error\n"
    "                            only for non-classical circuits)\n"
    "  --run k=v,k=v             interpret the program on the given input\n"
    "                            registers and print the output\n"
    "  --verify-each             run the static verifier on every stage\n"
    "                            artifact (IR invariants, circuit/netlist\n"
    "                            well-formedness, ancilla-cleanness parity)\n"
    "                            and fail on any violation; also on by\n"
    "                            default when SPIRE_VERIFY_EACH is set\n"
    "  --analyze                 print the static-analysis lint summary\n"
    "                            for the compiled circuit (wire cleanness\n"
    "                            at exit, dead gates, affine coverage);\n"
    "                            violations exit 1\n"
    "  --dump-ir                 print the (optimized) core IR\n"
    "  --timings                 print per-stage timings (plus cost-model\n"
    "                            cache and symbol-table counters) to stderr\n"
    "  --trace-json <file>       record a Chrome trace-event timeline of\n"
    "                            the invocation (open in chrome://tracing\n"
    "                            or Perfetto; see docs/observability.md)\n"
    "  --metrics-json <file>     dump the run report and metrics registry\n"
    "                            as JSON (spire-metrics-v1, a superset of\n"
    "                            --timings)\n"
    "\n"
    "options:\n"
    "  --entry <fun>             entry function to compile (required)\n"
    "  --size N                  static size (recursion depth) to\n"
    "                            instantiate the entry at (default 0)\n"
    "  --no-flatten              disable conditional flattening\n"
    "  --no-narrow               disable conditional narrowing\n"
    "  -O0                       disable all Spire optimizations\n"
    "  --word-bits N             register width in qubits (default 8)\n"
    "  --heap-cells N            qRAM size in cells (default 16)\n"
    "  --max-inline-depth N      bound on call-inlining depth during\n"
    "                            lowering (default 100000)\n"
    "  --max-inline-instances N  bound on total inlined calls during\n"
    "                            lowering (default 100000)\n"
    "  --circuit-opt peephole|rotation|cliffordt-cancel|toffoli-cancel|"
    "exhaustive\n"
    "                            additionally run a circuit-optimizer\n"
    "                            baseline\n"
    "  --qc-in <file.qc>         circuit-in mode: load a .qc circuit\n"
    "                            instead of compiling a Tower program\n"
    "  --qasm-in <file.qasm>     circuit-in mode: load an OpenQASM 3\n"
    "                            circuit (see docs/formats.md)\n"
    "  --batch <list>            compile every input named in <list> (one\n"
    "                            path per line, # comments) with per-input\n"
    "                            failure isolation; exit 0 only when every\n"
    "                            input succeeds\n"
    "  --batch-retries N         retry transiently-failed batch inputs\n"
    "                            (injected io faults, tripped deadlines —\n"
    "                            the budget doubles per retry) up to N\n"
    "                            times with exponential backoff\n"
    "  --cache-dir <d>           persistent content-addressed artifact\n"
    "                            cache (env SPIRE_CACHE_DIR): verified\n"
    "                            hits skip compilation, corrupt entries\n"
    "                            are quarantined and recomputed, a sick\n"
    "                            cache degrades to uncached operation\n"
    "                            (docs/service.md)\n"
    "  --cache-max-mb N          cache size cap in MiB; oldest-used\n"
    "                            entries are evicted after each store\n"
    "  --serve <fifo|file>       long-lived request loop: one request per\n"
    "                            line (compile <in> <out> [entry [size]]\n"
    "                            or shutdown), each under a fresh governor\n"
    "                            and catch wall; a FIFO re-opens between\n"
    "                            writers, a regular file drains once\n"
    "  --timeout-ms N            wall-clock budget; exceeding it stops the\n"
    "                            compile with a resource-limit error\n"
    "  --max-alloc-mb N          heap-traffic budget in MiB\n"
    "  --max-gates N             cap on the size any circuit may reach\n"
    "  --max-output-mb N         cap on an emitted artifact's size in MiB\n"
    "  --help, -h                print this help and exit\n"
    "\n"
    "exit status: 0 on success, 1 on a compile, runtime, equivalence, or\n"
    "batch error, 2 on a command-line error, an unwritable artifact, or a\n"
    "resource-limit trip (always with a diagnostic on stderr).\n";

[[noreturn]] void usageError(const char *Message) {
  std::fprintf(stderr, "spirec: error: %s\n", Message);
  std::fprintf(stderr, "%s", UsageText);
  std::exit(2);
}

int64_t parseInt(const char *Text, const char *What) {
  char *End = nullptr;
  long long Value = std::strtoll(Text, &End, 10);
  if (End == Text || *End != '\0') {
    std::string Message = std::string("invalid integer for ") + What;
    usageError(Message.c_str());
  }
  return Value;
}

/// Governor budgets must be positive (0 would mean "trip immediately",
/// which nobody wants spelled that way; leave a budget off to disable
/// it).
int64_t parsePositiveInt(const char *Text, const char *What) {
  int64_t Value = parseInt(Text, What);
  if (Value <= 0) {
    std::string Message = std::string(What) + " must be positive";
    usageError(Message.c_str());
  }
  return Value;
}

std::optional<driver::CircuitOptimizerKind>
circuitOptKind(const std::string &Name) {
  using K = driver::CircuitOptimizerKind;
  if (Name == "peephole")
    return K::Peephole;
  if (Name == "rotation")
    return K::RotationMerging;
  if (Name == "cliffordt-cancel")
    return K::CliffordTCancel;
  if (Name == "toffoli-cancel")
    return K::ToffoliCancel;
  if (Name == "exhaustive")
    return K::ExhaustiveCancel;
  return std::nullopt;
}

/// Applies one --emit spelling: a format (qc | qasm3) or a legacy gate
/// level (mcx | toffoli | cliffordt), which means .qc legalized onto the
/// equivalent --basis (the level decompositions are exactly the
/// legalizer's bases).
void applyEmitSpec(const std::string &Spec, bool HasBasis,
                   driver::PipelineOptions &Pipe) {
  if (std::optional<interchange::Format> F =
          interchange::formatFromName(Spec)) {
    Pipe.OutputFormat = *F;
    return;
  }
  interchange::Basis Basis;
  if (Spec == "mcx")
    Basis = interchange::Basis::MCX;
  else if (Spec == "toffoli")
    Basis = interchange::Basis::Toffoli;
  else if (Spec == "cliffordt")
    Basis = interchange::Basis::CX;
  else
    usageError("--emit must be qc, qasm3, or a legacy gate level "
               "(mcx, toffoli, cliffordt)");
  if (HasBasis)
    usageError("--basis and a legacy --emit level are mutually "
               "exclusive; use --emit qc|qasm3 with --basis");
  Pipe.Basis = Basis;
}

Options parseArgs(int Argc, char **Argv) {
  Options Opts;
  std::string QcInPath, QasmInPath, EmitSpec, BasisName;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto next = [&](const char *What) -> const char * {
      if (I + 1 >= Argc)
        usageError((std::string("missing value for ") + What).c_str());
      return Argv[++I];
    };
    if (Arg == "--help" || Arg == "-h") {
      std::fputs(UsageText, stdout);
      std::exit(0);
    }
    if (Arg == "--entry")
      Opts.Pipeline.Entry = next("--entry");
    else if (Arg == "--size")
      Opts.Pipeline.Size = parseInt(next("--size"), "--size");
    else if (Arg == "--report")
      Opts.Report = true;
    else if (Arg == "--dump-ir")
      Opts.DumpIR = true;
    else if (Arg == "--timings")
      Opts.Timings = true;
    else if (Arg == "--emit")
      EmitSpec = next("--emit");
    else if (Arg == "--basis")
      BasisName = next("--basis");
    else if (Arg == "-o")
      Opts.OutputPath = next("-o");
    else if (Arg == "--check-equiv")
      Opts.CheckEquivPath = next("--check-equiv");
    else if (Arg == "--check-equiv-samples") {
      int64_t N = parseInt(next("--check-equiv-samples"),
                           "--check-equiv-samples");
      // Reject out-of-range counts before the unsigned narrowing: 2^32
      // must not silently become 0 samples (a vacuous check).
      if (N <= 0 || N > std::numeric_limits<unsigned>::max())
        usageError("--check-equiv-samples must be a positive 32-bit "
                   "count");
      Opts.CheckEquivSamples = static_cast<unsigned>(N);
      Opts.CheckEquivSamplesSet = true;
    }
    else if (Arg == "--run")
      Opts.RunInputs = next("--run");
    else if (Arg == "--verify-each")
      Opts.Pipeline.VerifyEach = true;
    else if (Arg == "--analyze")
      Opts.Analyze = true;
    else if (Arg == "--no-flatten")
      Opts.Pipeline.Spire.ConditionalFlattening = false;
    else if (Arg == "--no-narrow")
      Opts.Pipeline.Spire.ConditionalNarrowing = false;
    else if (Arg == "-O0")
      Opts.Pipeline.Spire = opt::SpireOptions::none();
    else if (Arg == "--word-bits")
      Opts.Pipeline.Target.WordBits =
          static_cast<unsigned>(parseInt(next("--word-bits"), "--word-bits"));
    else if (Arg == "--heap-cells")
      Opts.Pipeline.Target.HeapCells = static_cast<unsigned>(
          parseInt(next("--heap-cells"), "--heap-cells"));
    else if (Arg == "--max-inline-depth")
      Opts.Pipeline.MaxInlineDepth = static_cast<unsigned>(parseInt(
          next("--max-inline-depth"), "--max-inline-depth"));
    else if (Arg == "--max-inline-instances")
      Opts.Pipeline.MaxInlineInstances = static_cast<unsigned>(parseInt(
          next("--max-inline-instances"), "--max-inline-instances"));
    else if (Arg == "--circuit-opt")
      Opts.CircuitOpt = next("--circuit-opt");
    else if (Arg == "--trace-json")
      Opts.TraceJsonPath = next("--trace-json");
    else if (Arg == "--metrics-json")
      Opts.MetricsJsonPath = next("--metrics-json");
    else if (Arg == "--qc-in")
      QcInPath = next("--qc-in");
    else if (Arg == "--qasm-in")
      QasmInPath = next("--qasm-in");
    else if (Arg == "--batch")
      Opts.BatchPath = next("--batch");
    else if (Arg == "--batch-retries") {
      Opts.BatchRetries = parseInt(next("--batch-retries"),
                                   "--batch-retries");
      if (Opts.BatchRetries < 0)
        usageError("--batch-retries must be non-negative");
    } else if (Arg == "--cache-dir")
      Opts.CacheDir = next("--cache-dir");
    else if (Arg == "--cache-max-mb")
      Opts.CacheMaxMb =
          parsePositiveInt(next("--cache-max-mb"), "--cache-max-mb");
    else if (Arg == "--serve")
      Opts.ServePath = next("--serve");
    else if (Arg == "--timeout-ms")
      Opts.Pipeline.Limits.TimeoutMs =
          parsePositiveInt(next("--timeout-ms"), "--timeout-ms");
    else if (Arg == "--max-alloc-mb")
      Opts.Pipeline.Limits.MaxAllocBytes =
          parsePositiveInt(next("--max-alloc-mb"), "--max-alloc-mb") << 20;
    else if (Arg == "--max-gates")
      Opts.Pipeline.Limits.MaxGates =
          parsePositiveInt(next("--max-gates"), "--max-gates");
    else if (Arg == "--max-output-mb")
      Opts.Pipeline.Limits.MaxOutputBytes =
          parsePositiveInt(next("--max-output-mb"), "--max-output-mb") << 20;
    else if (!Arg.empty() && Arg[0] == '-')
      usageError((std::string("unknown option ") + Arg).c_str());
    else if (Opts.InputPath.empty())
      Opts.InputPath = Arg;
    else
      usageError("multiple input files");
  }

  if (!QcInPath.empty() && !QasmInPath.empty())
    usageError("--qc-in and --qasm-in are mutually exclusive");
  // The environment default keeps CI recipes and wrapper scripts from
  // threading --cache-dir through every invocation.
  if (Opts.CacheDir.empty())
    if (const char *Env = std::getenv("SPIRE_CACHE_DIR"); Env && *Env)
      Opts.CacheDir = Env;
  if (Opts.CacheMaxMb > 0 && Opts.CacheDir.empty())
    usageError("--cache-max-mb needs --cache-dir (or SPIRE_CACHE_DIR)");
  if (Opts.BatchRetries > 0 && Opts.BatchPath.empty())
    usageError("--batch-retries needs --batch");
  if (!Opts.ServePath.empty()) {
    // Serve mode owns the process: requests bring their own inputs and
    // outputs, so every single-input mode is meaningless here.
    if (!Opts.BatchPath.empty())
      usageError("--serve is exclusive with --batch");
    if (!Opts.InputPath.empty() || !QcInPath.empty() || !QasmInPath.empty())
      usageError("--serve is exclusive with a single input");
    if (!EmitSpec.empty() || !Opts.OutputPath.empty() ||
        !Opts.CheckEquivPath.empty() || Opts.RunInputs || Opts.Report ||
        Opts.DumpIR || Opts.Analyze)
      usageError("--serve supports only the shared compile flags, not "
                 "--emit/-o/--check-equiv/--run/--report/--dump-ir/"
                 "--analyze");
  } else if (!Opts.BatchPath.empty()) {
    // Batch mode shares the compile configuration (--entry, --basis,
    // --circuit-opt, the governor budgets) across inputs but has no
    // single-input modes: nothing sensible interleaves N circuits on
    // one stdout or compares them against one reference.
    if (!Opts.InputPath.empty() || !QcInPath.empty() || !QasmInPath.empty())
      usageError("--batch is exclusive with a single input");
    if (!EmitSpec.empty() || !Opts.OutputPath.empty() ||
        !Opts.CheckEquivPath.empty() || Opts.RunInputs || Opts.Report ||
        Opts.DumpIR || Opts.Analyze)
      usageError("--batch supports only the shared compile flags, not "
                 "--emit/-o/--check-equiv/--run/--report/--dump-ir/"
                 "--analyze");
  } else if (!QcInPath.empty() || !QasmInPath.empty()) {
    if (!Opts.InputPath.empty() || !Opts.Pipeline.Entry.empty())
      usageError("circuit-in mode (--qc-in / --qasm-in) is exclusive "
                 "with a Tower input file");
    Opts.CircuitInPath = QcInPath.empty() ? QasmInPath : QcInPath;
    Opts.Pipeline.Input = driver::InputKind::Circuit;
    Opts.Pipeline.InputFormat = QcInPath.empty()
                                    ? interchange::Format::Qasm3
                                    : interchange::Format::Qc;
    // Cost analysis and interpretation need the lowered IR, which a
    // circuit input does not have.
    if (Opts.Report)
      usageError("--report needs a Tower program, not a circuit input");
    if (Opts.RunInputs)
      usageError("--run needs a Tower program, not a circuit input");
    if (Opts.DumpIR)
      usageError("--dump-ir needs a Tower program, not a circuit input");
  } else {
    if (Opts.InputPath.empty())
      usageError("no input file");
    if (Opts.Pipeline.Entry.empty())
      usageError("--entry is required");
  }

  if (!EmitSpec.empty())
    applyEmitSpec(EmitSpec, !BasisName.empty(), Opts.Pipeline);
  if (!BasisName.empty()) {
    std::optional<interchange::Basis> B =
        interchange::basisFromName(BasisName);
    if (!B)
      usageError("--basis must be mcx, toffoli, or cx");
    Opts.Pipeline.Basis = *B;
  }
  if (!Opts.CircuitOpt.empty() && !circuitOptKind(Opts.CircuitOpt))
    usageError("unknown --circuit-opt name");

  // Emission happens in circuit-in mode, under --emit, or when --basis
  // asked for a legalized circuit (default format: qc). Batch and serve
  // modes never emit through -o.
  Opts.WantEmit = Opts.BatchPath.empty() && Opts.ServePath.empty() &&
                  (Opts.Pipeline.Input == driver::InputKind::Circuit ||
                   !EmitSpec.empty() || !BasisName.empty());
  return Opts;
}

/// Parses "--run xs=5,acc=0" into register assignments.
std::vector<std::pair<std::string, uint64_t>>
parseRunInputs(const std::string &Text) {
  std::vector<std::pair<std::string, uint64_t>> Result;
  std::stringstream Stream(Text);
  std::string Item;
  while (std::getline(Stream, Item, ',')) {
    if (Item.empty())
      continue;
    size_t Eq = Item.find('=');
    if (Eq == std::string::npos)
      usageError("--run entries must look like name=value");
    Result.emplace_back(Item.substr(0, Eq),
                        parseInt(Item.c_str() + Eq + 1, "--run value"));
  }
  return Result;
}

/// Where an emitted artifact is rendered: a staged file for an output
/// path, memory otherwise (stdout, or a batch entry's discarded render).
struct ArtifactOut {
  std::optional<support::StagedFile> File;
  std::string Text;
  std::optional<support::StringSink> Memory;

  explicit ArtifactOut(const std::string &Path) {
    if (Path.empty())
      Memory.emplace(Text);
    else
      File.emplace(Path);
  }
  ArtifactOut(const ArtifactOut &) = delete;
  ArtifactOut &operator=(const ArtifactOut &) = delete;

  support::OutputSink *sink() {
    if (File)
      return &*File;
    return &*Memory;
  }
};

/// Delivers the emitted artifact: commits the staged -o file, or prints
/// the text rendered for stdout.
void writeOutput(ArtifactOut &Artifact) {
  support::faultAlloc("write/output");
  if (!Artifact.File) {
    std::fputs(Artifact.Text.c_str(), stdout);
    return;
  }
  std::string Error;
  if (!Artifact.File->commit(Error, "write/output")) {
    // A bad -o path is a command-line error, like an unreadable input.
    // The staged write means a failure here leaves no torn file behind.
    std::fprintf(stderr, "spirec: error: %s\n", Error.c_str());
    std::exit(2);
  }
}

/// Reads a whole file, or exits 2 (missing inputs are CLI errors). Input
/// reads are the `io/input` fault-injection site.
std::string readFileOrDie(const std::string &Path) {
  std::string Text, Error;
  if (!support::readFile(Path, Text, Error, "io/input")) {
    std::fprintf(stderr, "spirec: error: %s\n", Error.c_str());
    std::exit(2);
  }
  return Text;
}

/// --check-equiv: compares the run's final circuit against the circuit
/// in `Path` (format auto-detected) on basis states — exhaustively when
/// both circuits are classical and small enough, on bit-sliced batches
/// otherwise, with the state-vector path as the non-classical fallback.
/// Returns the process exit code.
int checkEquivalence(const circuit::Circuit &Final, const std::string &Path,
                     unsigned Samples, bool SamplesExplicit, bool Timings,
                     bool CrossCheck) {
  // Diag-kind injection site; the alloc kind fires inside
  // interchange::checkEquivalence itself.
  support::DiagnosticEngine FaultDiags;
  if (support::faultDiag("equiv/check", FaultDiags)) {
    std::fprintf(stderr, "%s", FaultDiags.str().c_str());
    std::fprintf(stderr, "spirec: error: equivalence check failed\n");
    return 1;
  }
  std::string Text = readFileOrDie(Path);
  support::DiagnosticEngine Diags;
  std::optional<circuit::Circuit> Other = interchange::readCircuit(
      Text, interchange::detectFormat(Text), Diags);
  if (!Other) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    std::fprintf(stderr, "spirec: error: cannot parse %s\n", Path.c_str());
    return 1;
  }
  // Sweeping happens over the narrower circuit's wires; asking for more
  // samples than that space has distinct basis states means the user
  // wants *all* of them. On the classical (X-only) pair the bit-sliced
  // backend delivers exactly that — the request clamps to an exhaustive
  // sweep and the report says so. Only the state-vector path, which
  // cannot enumerate exhaustively at scale, diagnoses an explicit
  // over-request; the default count adapts to small circuits silently.
  unsigned Common = std::min(Final.NumQubits, Other->NumQubits);
  bool Classical =
      interchange::isClassical(Final) && interchange::isClassical(*Other);
  if (!Classical && Common < 64 && Samples > (uint64_t{1} << Common)) {
    uint64_t Distinct = uint64_t{1} << Common;
    if (SamplesExplicit) {
      std::fprintf(stderr,
                   "spirec: error: --check-equiv-samples %u exceeds the "
                   "%llu distinct basis states of the %u-qubit comparison "
                   "and the circuits are not classical (exhaustive mode "
                   "needs X-only circuits); pass at most %llu\n",
                   Samples, static_cast<unsigned long long>(Distinct),
                   Common, static_cast<unsigned long long>(Distinct));
      return 2;
    }
    Samples = static_cast<unsigned>(Distinct);
  }
  interchange::EquivalenceOptions EquivOpts;
  EquivOpts.Samples = Samples;
  EquivOpts.CrossCheck = CrossCheck;
  interchange::EquivalenceReport Report =
      interchange::checkEquivalence(Final, *Other, EquivOpts);
  if (Timings) {
    double StatesPerSec =
        Report.StatesRun / (Report.Seconds > 0 ? Report.Seconds : 1e-9);
    std::fprintf(stderr,
                 "spirec: check-equiv: %s backend, %.3f s, %.3g "
                 "states/sec\n",
                 Report.BitSliced ? "bit-sliced" : "state-vector",
                 Report.Seconds, StatesPerSec);
  }
  if (!Report.Equivalent) {
    // A governor trip mid-sweep leaves the check unfinished, not
    // failed: report the budget, not a bogus inequivalence.
    if (auto *G = support::Governor::current(); G && G->exceeded()) {
      support::DiagnosticEngine GovDiags;
      G->report(GovDiags);
      std::fprintf(stderr, "%s", GovDiags.str().c_str());
      return 2;
    }
    std::fprintf(stderr,
                 "spirec: error: circuits are NOT equivalent (%s)\n",
                 Report.Detail.c_str());
    return 1;
  }
  if (Report.Exhaustive)
    std::fprintf(stderr,
                 "spirec: equivalent on all %llu basis states "
                 "(exhaustive)\n",
                 static_cast<unsigned long long>(Report.StatesRun));
  else if (Report.BitSliced)
    std::fprintf(stderr,
                 "spirec: equivalent on %llu batched basis states\n",
                 static_cast<unsigned long long>(Report.StatesRun));
  else
    std::fprintf(stderr, "spirec: equivalent on %llu sampled basis states\n",
                 static_cast<unsigned long long>(Report.StatesRun));
  return 0;
}

/// Everything between argument parsing and the observability dumps: the
/// pipeline run plus every mode. Fills \p R so the caller can render the
/// metrics report after *all* work (including --check-equiv, whose spans
/// and counters belong in the artifacts) has happened. Returns the
/// process exit code.
int runCompilerModes(Options &Opts, driver::CompilationResult &R,
                     support::ArtifactCache *Cache) {
  driver::PipelineOptions &Pipe = Opts.Pipeline;
  bool CircuitIn = Pipe.Input == driver::InputKind::Circuit;

  // A missing or unreadable input file is a command-line error. Read it
  // once here; the pipeline then runs over the in-memory source.
  std::string Source =
      readFileOrDie(CircuitIn ? Opts.CircuitInPath : Opts.InputPath);

  // -- Configure and run the pipeline through the service. ---------------
  Pipe.AnalyzeCost = Opts.Report; // Rejected in circuit-in mode above.
  Pipe.BuildCircuit =
      Opts.WantEmit || !Opts.CheckEquivPath.empty() || Opts.Analyze;
  if (!Opts.CircuitOpt.empty())
    Pipe.CircuitOpt = *circuitOptKind(Opts.CircuitOpt);

  // Only a pure emit run is cacheable. Every other mode wants byproducts
  // of the compile itself (IR, costs, lints, interpreter runs), which a
  // cached artifact cannot provide.
  const bool CacheEligible = Opts.WantEmit && !Opts.Report && !Opts.DumpIR &&
                             !Opts.Analyze && !Opts.RunInputs &&
                             Opts.CheckEquivPath.empty();
  // A malformed --run spec exits here, before an artifact is staged.
  std::vector<std::pair<std::string, uint64_t>> RunInputs;
  if (Opts.RunInputs)
    RunInputs = parseRunInputs(*Opts.RunInputs);

  // The artifact streams into a staged -o file, committed below where
  // every other mode has passed, so a failed --analyze or a tripped
  // budget leaves no artifact. For stdout it is held in memory and
  // printed after the other modes' output.
  std::optional<ArtifactOut> Artifact;
  if (Opts.WantEmit)
    Artifact.emplace(Opts.OutputPath);
  driver::Service Svc(CacheEligible ? Cache : nullptr);
  driver::ServiceResponse Resp = Svc.handle(
      {Pipe, std::move(Source)}, Artifact ? Artifact->sink() : nullptr);
  R = std::move(Resp.Result);
  if (Opts.Timings) {
    for (const driver::StageTiming &T : R.Stages)
      std::fprintf(stderr,
                   "spirec: %-15s %.3f s  %10lld allocs  %+8lld KiB peak "
                   "RSS\n",
                   driver::stageName(T.Which), T.Seconds,
                   static_cast<long long>(T.Allocs),
                   static_cast<long long>(T.PeakRSSDeltaKb));
    if (R.QoptStats)
      std::fprintf(stderr,
                   "spirec: qopt stats: %lld pairs cancelled, %lld "
                   "rotations merged (%lld fixpoint passes, %lld worklist "
                   "visits)\n",
                   static_cast<long long>(R.QoptStats->CancelledPairs),
                   static_cast<long long>(R.QoptStats->MergedRotations),
                   static_cast<long long>(R.QoptStats->CancelPasses),
                   static_cast<long long>(R.QoptStats->WorklistVisits));
    // Emission (render plus write) and the counters below are scraped
    // from the metrics registry.
    auto &Reg = obs::Registry::global();
    if (obs::Registry::Histogram Emit = Reg.histogram("emit.seconds");
        Emit.count() != 0)
      std::fprintf(stderr, "spirec: %-15s %.3f s  %10lld bytes\n", "emit",
                   Emit.sum(),
                   static_cast<long long>(Reg.counter("emit.bytes").value()));
    // Cost-model cache effectiveness and interner size (zero hits/misses
    // simply means no mode needed the cost model this run).
    std::fprintf(
        stderr, "spirec: costmodel profile cache: %lld hits, %lld misses\n",
        static_cast<long long>(
            Reg.counter("costmodel.profile_cache.hits").value()),
        static_cast<long long>(
            Reg.counter("costmodel.profile_cache.misses").value()));
    std::fprintf(stderr, "spirec: symbols: %zu interned\n",
                 support::SymbolTable::global().size());
  }
  if (!R.succeeded()) {
    std::fprintf(stderr, "%s", R.Diags.str().c_str());
    std::fprintf(stderr, "spirec: error: compilation failed at the %s "
                         "stage\n",
                 driver::stageName(*R.Failed));
    return 1;
  }
  // A budget tripped after the last stage (the render, or a cache hit
  // over the output cap): stop before any mode runs under the tripped
  // governor; main reports its diagnostic.
  if (R.LimitHit)
    return 2;
  if (!Resp.OK) {
    std::fprintf(stderr, "spirec: error: %s\n", Resp.Error.c_str());
    return 1;
  }

  if (Opts.Report) {
    std::printf("entry %s at size %lld (%u-bit words, %u heap cells)\n",
                Pipe.Entry.c_str(), static_cast<long long>(Pipe.Size),
                Pipe.Target.WordBits, Pipe.Target.HeapCells);
    std::printf("  unoptimized: MCX-complexity %lld, T-complexity %lld\n",
                static_cast<long long>(R.UnoptimizedCost->MCX),
                static_cast<long long>(R.UnoptimizedCost->T));
    std::printf("  optimized:   MCX-complexity %lld, T-complexity %lld\n",
                static_cast<long long>(R.OptimizedCost->MCX),
                static_cast<long long>(R.OptimizedCost->T));
  }

  if (Opts.DumpIR && R.Optimized)
    std::printf("%s", R.Optimized->str().c_str());

  // -- Interpret. ----------------------------------------------------------
  if (Opts.RunInputs) {
    sim::MachineState State = sim::MachineState::make(Pipe.Target.HeapCells);
    for (const auto &[Name, Value] : RunInputs)
      State.Regs[Name] = Value;
    sim::Interpreter Interp(*R.Optimized, Pipe.Target);
    if (!Interp.run(State)) {
      std::fprintf(stderr, "spirec: runtime error: %s\n",
                   Interp.error().c_str());
      return 1;
    }
    std::printf("%s = %llu\n", R.Optimized->OutputVar.str().c_str(),
                static_cast<unsigned long long>(Interp.output(State)));
  }

  // -- Static-analysis lint mode. ------------------------------------------
  if (Opts.Analyze && R.Compiled) {
    const circuit::Circuit &C = R.Compiled->Circ;
    analysis::VerifyReport V;
    if (R.Optimized)
      V.merge(analysis::verifyProgram(*R.Optimized, Pipe.Target));
    V.merge(analysis::verifyCircuit(C));
    // Parity cleanness obligations need the compiled layout's wire
    // classification; an imported circuit gets the obligation-free spec
    // (the lint counts are still informative).
    analysis::CleanSpec Spec =
        CircuitIn ? analysis::CleanSpec::allUnknown(C.NumQubits)
                  : analysis::CleanSpec::forLayout(R.Compiled->Layout,
                                                   C.NumQubits);
    analysis::ParityResult PR = analysis::analyzeParity(C, Spec);
    // A trip mid-analysis leaves a partial result; report the budget
    // (main does), never the partial lint.
    if (auto *G = support::Governor::current(); G && G->exceeded())
      return 2;
    V.merge(PR.Report);
    std::printf("analyze: %u wires at exit: %zu clean, %zu dirty, "
                "%zu unknown\n",
                C.NumQubits, PR.count(analysis::Cleanness::Clean),
                PR.count(analysis::Cleanness::Dirty),
                PR.count(analysis::Cleanness::Unknown));
    // Dirty inputs/memory/outputs are expected (they carry the result);
    // the obligation counts are what a lint user acts on.
    size_t Obligated = 0, Proved = 0;
    for (unsigned Q = 0; Q != C.NumQubits; ++Q) {
      if (Q >= Spec.RequireClean.size() || !Spec.RequireClean[Q])
        continue;
      ++Obligated;
      if (PR.WireExit[Q] == analysis::Cleanness::Clean)
        ++Proved;
    }
    std::printf("analyze: %zu ancilla wires must return to |0>; "
                "%zu proved clean\n",
                Obligated, Proved);
    std::printf("analyze: %zu gates: %zu statically dead, %zu outside "
                "the affine (X/CNOT) fragment%s\n",
                C.Gates.size(), PR.DeadGates.size(), PR.NonAffineGates,
                PR.fullyAffine() ? " (exact parity model)" : "");
    if (!V.ok()) {
      std::fprintf(stderr, "%s", V.str().c_str());
      std::fprintf(stderr, "spirec: error: %zu static-analysis "
                           "violation(s)\n",
                   V.Violations.size());
      return 1;
    }
  }

  // -- Circuit-in mode reports the gate-count change on stderr. ------------
  if (CircuitIn && R.Compiled) {
    circuit::GateCounts Before = circuit::countGates(R.Compiled->Circ);
    circuit::GateCounts After = circuit::countGates(*R.finalCircuit());
    std::fprintf(stderr,
                 "spirec: %lld gates, T-complexity %lld -> %lld gates, "
                 "T-complexity %lld\n",
                 static_cast<long long>(Before.Total),
                 static_cast<long long>(Before.TComplexity),
                 static_cast<long long>(After.Total),
                 static_cast<long long>(After.TComplexity));
    if (R.QoptStats)
      std::fprintf(stderr,
                   "spirec: qopt: cancelled %lld pairs, merged %lld "
                   "rotations\n",
                   static_cast<long long>(R.QoptStats->CancelledPairs),
                   static_cast<long long>(R.QoptStats->MergedRotations));
  }

  // -- Commit the emitted circuit and check equivalence. -------------------
  // The service stored a cacheable artifact before returning, so a crash
  // during this commit still leaves the next run a warm entry.
  if (Artifact)
    writeOutput(*Artifact);
  if (!Opts.CheckEquivPath.empty()) {
    const circuit::Circuit *Final = R.finalCircuit();
    if (!Final)
      usageError("--check-equiv needs a circuit (add --emit or --basis)");
    return checkEquivalence(*Final, Opts.CheckEquivPath,
                            Opts.CheckEquivSamples,
                            Opts.CheckEquivSamplesSet, Opts.Timings,
                            Pipe.VerifyEach);
  }
  return 0;
}

// -- Batch and serve mode. -------------------------------------------------

/// One --batch entry's (or serve request's) outcome, for the summary
/// lines and the spire-batch-v1 metrics report.
struct BatchOutcome {
  std::string Path;
  bool OK = false;
  bool Cached = false;  ///< Served from the artifact cache.
  int Attempts = 1;     ///< Compile attempts (> 1 under --batch-retries).
  std::string Detail;   ///< First error line when not OK.
  std::string LimitHit; ///< resourceLimitName when a budget tripped.
  double Seconds = 0;
};

/// Input kind for a batch entry, by extension: .qc and .qasm/.qasm3 are
/// circuits, everything else compiles as a Tower program.
driver::InputKind batchInputKind(const std::string &Path,
                                 interchange::Format &Format) {
  size_t Dot = Path.rfind('.');
  std::string Ext = Dot == std::string::npos ? "" : Path.substr(Dot + 1);
  if (Ext == "qc") {
    Format = interchange::Format::Qc;
    return driver::InputKind::Circuit;
  }
  if (Ext == "qasm" || Ext == "qasm3") {
    Format = interchange::Format::Qasm3;
    return driver::InputKind::Circuit;
  }
  return driver::InputKind::Tower;
}

/// Builds the per-request pipeline configuration a batch entry or serve
/// request compiles under: shared flags plus the input kind derived from
/// the path's extension.
driver::PipelineOptions requestPipeOptions(const Options &Opts,
                                           const std::string &Path) {
  driver::PipelineOptions Pipe = Opts.Pipeline;
  Pipe.Input = batchInputKind(Path, Pipe.InputFormat);
  Pipe.AnalyzeCost = false;
  Pipe.BuildCircuit = true;
  if (!Opts.CircuitOpt.empty())
    Pipe.CircuitOpt = *circuitOptKind(Opts.CircuitOpt);
  return Pipe;
}

/// A failure worth retrying under --batch-retries: an injected fault
/// (one-shot by construction), a mid-stream read error, or a tripped
/// deadline (the budget doubles for the retry). Missing files and
/// compile errors are permanent.
bool transientFailure(const BatchOutcome &Out) {
  return Out.LimitHit == "deadline" ||
         Out.Detail.find("injected fault") != std::string::npos ||
         Out.Detail.rfind("read of ", 0) == 0;
}

/// The per-request step batch and serve mode share: reads \p InPath,
/// compiles it through the service (own governor + catch wall per
/// attempt), and writes the artifact to \p OutPath when one is given.
/// Every failure mode — missing entry, unreadable input, compile error,
/// tripped budget, unwritable output, injected fault, OOM — stays inside
/// the request. Transient failures are retried up to \p Retries times
/// with exponential backoff.
BatchOutcome runRequest(driver::Service &Svc, driver::PipelineOptions Pipe,
                        const std::string &InPath, const std::string &OutPath,
                        int64_t Retries) {
  BatchOutcome Out;
  Out.Path = InPath;
  auto Start = std::chrono::steady_clock::now();
  // Permanent: no retry can supply the entry.
  if (Pipe.Input == driver::InputKind::Tower && Pipe.Entry.empty()) {
    Out.Detail = "--entry is required for Tower inputs";
  } else {
    for (int Attempt = 1, BackoffMs = 10;; ++Attempt, BackoffMs *= 2) {
      Out.Attempts = Attempt;
      Out.Cached = false;
      Out.Detail.clear();
      Out.LimitHit.clear();
      try {
        std::string Source, Error;
        if (!support::readFile(InPath, Source, Error, "io/input")) {
          Out.Detail = Error;
        } else {
          ArtifactOut Artifact(OutPath);
          driver::ServiceResponse Resp =
              Svc.handle({Pipe, std::move(Source)}, Artifact.sink());
          Out.Cached = Resp.CacheHit;
          if (Resp.Result.LimitHit)
            Out.LimitHit = support::resourceLimitName(*Resp.Result.LimitHit);
          if (!Resp.OK)
            Out.Detail = Resp.Error;
          else if (Artifact.File &&
                   !Artifact.File->commit(Error, "write/output"))
            Out.Detail = Error;
          else
            Out.OK = true;
        }
      } catch (const std::bad_alloc &) {
        Out.Detail = "out of memory";
      } catch (const std::exception &E) {
        Out.Detail = std::string("internal error: ") + E.what();
      }
      if (Out.OK || Attempt > Retries || !transientFailure(Out))
        break;
      if (Out.LimitHit == "deadline" && Pipe.Limits.TimeoutMs > 0)
        Pipe.Limits.TimeoutMs *= 2;
      std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs));
    }
  }
  Out.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Out;
}

/// Reads the next line of a batch list or serve request stream into
/// \p Line, trimmed, skipping blank lines and `#` comments. False at end
/// of input.
bool nextLine(std::istream &In, std::string &Line) {
  while (std::getline(In, Line)) {
    size_t B = Line.find_first_not_of(" \t\r");
    if (B == std::string::npos)
      continue;
    size_t E = Line.find_last_not_of(" \t\r");
    Line = Line.substr(B, E - B + 1);
    if (Line[0] != '#')
      return true;
  }
  return false;
}

/// Runs every input named in the --batch list. Returns the process exit
/// code: 0 only when every input compiled.
int runBatch(const Options &Opts, support::ArtifactCache *Cache,
             std::vector<BatchOutcome> &Outcomes) {
  std::istringstream List(readFileOrDie(Opts.BatchPath));
  std::vector<std::string> Paths;
  for (std::string Line; nextLine(List, Line);)
    Paths.push_back(Line);
  if (Paths.empty())
    usageError("--batch list names no inputs");

  driver::Service Svc(Cache);
  size_t Succeeded = 0;
  for (const std::string &Path : Paths) {
    BatchOutcome Out = runRequest(Svc, requestPipeOptions(Opts, Path), Path,
                                  "", Opts.BatchRetries);
    if (Out.OK) {
      ++Succeeded;
      std::printf("spirec: batch: ok     %s (%s%.3f s", Path.c_str(),
                  Out.Cached ? "cached, " : "", Out.Seconds);
      if (Out.Attempts > 1)
        std::printf(", %d attempts", Out.Attempts);
      std::printf(")\n");
    } else {
      std::printf("spirec: batch: FAILED %s (%s)\n", Path.c_str(),
                  Out.Detail.c_str());
    }
    Outcomes.push_back(std::move(Out));
  }
  std::printf("spirec: batch: %zu/%zu inputs succeeded\n", Succeeded,
              Paths.size());
  return Succeeded == Paths.size() ? 0 : 1;
}

/// spire-batch-v1: per-input outcomes plus the process-wide metrics
/// registry (which accumulates across entries). Serve mode reuses the
/// schema with mode "serve" (requests as inputs).
std::string renderBatchMetricsJson(const std::vector<BatchOutcome> &Outcomes,
                                   const char *Mode = "batch") {
  obs::publishProcessMetrics();
  size_t OK = 0;
  for (const BatchOutcome &O : Outcomes)
    OK += O.OK ? 1 : 0;
  obs::JsonWriter W;
  W.beginObject();
  W.kv("schema", "spire-batch-v1");
  W.kv("mode", Mode);
  W.kv("succeeded", OK == Outcomes.size());
  W.kv("inputs_total", static_cast<uint64_t>(Outcomes.size()));
  W.kv("inputs_succeeded", static_cast<uint64_t>(OK));
  W.key("inputs");
  W.beginArray();
  for (const BatchOutcome &O : Outcomes) {
    W.beginObject();
    W.kv("path", O.Path);
    W.kv("succeeded", O.OK);
    W.kv("cached", O.Cached);
    W.kv("attempts", static_cast<uint64_t>(O.Attempts));
    if (!O.LimitHit.empty())
      W.kv("limit_hit", O.LimitHit);
    if (!O.Detail.empty())
      W.kv("error", O.Detail);
    W.kv("seconds", O.Seconds, 6);
    W.endObject();
  }
  W.endArray();
  W.key("metrics");
  obs::writeMetricsObject(W, obs::Registry::global().snapshot());
  W.endObject();
  return W.take();
}

/// Handles one `compile <input> <output> [entry [size]]` request line.
/// Serve mode takes no retries (--batch-retries needs --batch).
BatchOutcome runServeRequest(const Options &Opts, driver::Service &Svc,
                             const std::string &Line) {
  std::vector<std::string> Toks;
  std::istringstream Words(Line);
  for (std::string Tok; Words >> Tok;)
    Toks.push_back(Tok);
  BatchOutcome Bad;
  Bad.Path = Toks.size() > 1 ? Toks[1] : "?";
  if (Toks.size() < 3 || Toks.size() > 5 || Toks[0] != "compile") {
    Bad.Detail = "bad request (want: compile <input> <output> "
                 "[entry [size]] | shutdown)";
    return Bad;
  }
  driver::PipelineOptions Pipe = requestPipeOptions(Opts, Toks[1]);
  if (Toks.size() >= 4)
    Pipe.Entry = Toks[3];
  if (Toks.size() >= 5) {
    char *End = nullptr;
    Pipe.Size = std::strtoll(Toks[4].c_str(), &End, 10);
    if (*End != '\0') {
      Bad.Detail = "bad size '" + Toks[4] + "'";
      return Bad;
    }
  }
  return runRequest(Svc, std::move(Pipe), Toks[1], Toks[2], 0);
}

/// The long-lived request loop behind `--serve <fifo|file>`: reads one
/// request per line, keeps the cache and symbol table warm across
/// requests, and answers on stdout (flushed per request). A FIFO blocks
/// until a writer connects and is re-opened after each hang-up until a
/// `shutdown` request; a regular file is drained once. Exit 0 on clean
/// shutdown — per-request failures are isolated by design and live in
/// the response lines and the spire-batch-v1 report, not the exit code.
int runServe(const Options &Opts, support::ArtifactCache *Cache,
             std::vector<BatchOutcome> &Requests) {
  struct stat St;
  if (::stat(Opts.ServePath.c_str(), &St) != 0) {
    std::fprintf(stderr,
                 "spirec: error: cannot open %s (--serve needs an "
                 "existing fifo or file)\n",
                 Opts.ServePath.c_str());
    return 2;
  }
  const bool Fifo = S_ISFIFO(St.st_mode);
  driver::Service Svc(Cache);
  size_t Succeeded = 0;
  bool Shutdown = false;
  while (!Shutdown) {
    // On a FIFO this open blocks until a writer connects; EOF means the
    // writer hung up, and the next iteration waits for the next one.
    std::ifstream In(Opts.ServePath, std::ios::binary);
    if (!In) {
      std::fprintf(stderr, "spirec: error: cannot read %s\n",
                   Opts.ServePath.c_str());
      return 2;
    }
    std::string Line;
    while (nextLine(In, Line)) {
      if (Line == "shutdown") {
        Shutdown = true;
        break;
      }
      BatchOutcome Out = runServeRequest(Opts, Svc, Line);
      if (Out.OK) {
        ++Succeeded;
        std::printf("spirec: serve: ok     %s (%s, %.3f s)\n",
                    Out.Path.c_str(), Out.Cached ? "hit" : "miss",
                    Out.Seconds);
      } else {
        std::printf("spirec: serve: FAILED %s (%s)\n", Out.Path.c_str(),
                    Out.Detail.c_str());
      }
      std::fflush(stdout);
      Requests.push_back(std::move(Out));
    }
    if (!Fifo)
      break; // Regular file: one drain pass.
  }
  std::printf("spirec: serve: %zu/%zu requests succeeded\n", Succeeded,
              Requests.size());
  std::fflush(stdout);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts = parseArgs(Argc, Argv);

  // A bad -o, --trace-json or --metrics-json path is a command-line
  // error (exit 2) before any compile work starts; the probe replaces an
  // eager open so the files themselves can be staged atomically after
  // the run.
  std::string ProbeError;
  if (Opts.WantEmit && !Opts.OutputPath.empty() &&
      !support::probeWritable(Opts.OutputPath, ProbeError)) {
    std::fprintf(stderr, "spirec: error: %s\n", ProbeError.c_str());
    return 2;
  }
  if (!Opts.TraceJsonPath.empty()) {
    if (!support::probeWritable(Opts.TraceJsonPath, ProbeError)) {
      std::fprintf(stderr, "spirec: error: %s\n", ProbeError.c_str());
      return 2;
    }
    obs::Tracer::global().enable();
  }
  if (!Opts.MetricsJsonPath.empty() &&
      !support::probeWritable(Opts.MetricsJsonPath, ProbeError)) {
    std::fprintf(stderr, "spirec: error: %s\n", ProbeError.c_str());
    return 2;
  }

  // Open the artifact cache once per process; batch and serve requests
  // share it. A cache that cannot be opened degrades to uncached
  // operation with a warning — cache damage never fails a compile.
  std::unique_ptr<support::ArtifactCache> Cache;
  if (!Opts.CacheDir.empty()) {
    support::CacheConfig Config;
    Config.Dir = Opts.CacheDir;
    Config.MaxBytes = Opts.CacheMaxMb << 20;
    Config.ToolVersion = driver::toolVersion();
    // Test hook: SPIRE_CACHE_RETRIES=0 exposes the degrade-to-uncached
    // path behind a single injected fault (the default retry absorbs
    // one-shot faults before they can degrade anything).
    if (const char *Env = std::getenv("SPIRE_CACHE_RETRIES"); Env && *Env)
      Config.RetryAttempts = static_cast<int>(std::strtol(Env, nullptr, 10));
    std::string CacheError;
    Cache = support::ArtifactCache::open(Config, CacheError);
    if (!Cache)
      std::fprintf(stderr, "spirec: warning: cache disabled: %s\n",
                   CacheError.c_str());
  }

  driver::CompilationResult R;
  std::vector<BatchOutcome> Batch;
  int Code = 0;
  if (!Opts.ServePath.empty()) {
    Code = runServe(Opts, Cache.get(), Batch);
  } else if (!Opts.BatchPath.empty()) {
    Code = runBatch(Opts, Cache.get(), Batch);
  } else {
    // One governor covers the whole invocation — pipeline, modes,
    // equivalence check, emission. The pipeline sees it installed and
    // shares it instead of arming its own.
    support::Governor Gov(Opts.Pipeline.Limits);
    support::GovernorScope GovScope(&Gov);
    try {
      Code = runCompilerModes(Opts, R, Cache.get());
    } catch (const std::bad_alloc &) {
      // Backstop for allocation failures outside the stage wrappers
      // (equivalence checking, emission, injected write/* faults).
      std::fprintf(stderr, "spirec: error: out of memory\n");
      Code = 1;
    } catch (const std::exception &E) {
      std::fprintf(stderr, "spirec: error: internal error: %s\n", E.what());
      Code = 1;
    }
    if (Gov.exceeded()) {
      if (!R.LimitHit)
        R.LimitHit = Gov.limit();
      // One-shot: silent when a checkpoint already reported the trip.
      support::DiagnosticEngine GovDiags;
      Gov.report(GovDiags);
      std::fprintf(stderr, "%s", GovDiags.str().c_str());
    }
    if (R.LimitHit)
      Code = 2; // Resource-limit trips exit 2; metrics still written.
  }

  // Dump after all modes so the artifacts cover the entire invocation —
  // including failed compiles (a trace of the failure is exactly what
  // the flag is for). Atomic writes: a fault here loses the artifact
  // but never leaves a torn one.
  auto dumpArtifact = [&Code](const std::string &Path, const char *Site,
                              std::string Json) {
    if (Path.empty())
      return;
    std::string Error;
    if (!support::writeFileAtomic(Path, Json, Error, Site)) {
      std::fprintf(stderr, "spirec: error: %s\n", Error.c_str());
      Code = 2;
    }
  };
  try {
    if (!Opts.TraceJsonPath.empty()) {
      support::faultAlloc("write/trace");
      dumpArtifact(Opts.TraceJsonPath, "write/trace",
                   obs::Tracer::global().chromeTraceJson() + "\n");
      obs::Tracer::global().disable();
    }
    if (!Opts.MetricsJsonPath.empty()) {
      support::faultAlloc("write/metrics");
      std::string Json;
      if (!Opts.ServePath.empty())
        Json = renderBatchMetricsJson(Batch, "serve");
      else if (!Opts.BatchPath.empty())
        Json = renderBatchMetricsJson(Batch);
      else
        Json = driver::renderMetricsJson(R);
      dumpArtifact(Opts.MetricsJsonPath, "write/metrics", Json + "\n");
    }
  } catch (const std::bad_alloc &) {
    std::fprintf(stderr,
                 "spirec: error: out of memory writing observability "
                 "artifacts\n");
    Code = 1;
  }
  return Code;
}
