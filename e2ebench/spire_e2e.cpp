//===----------------------------------------------------------------------===//
///
/// \file
/// spire_e2e — in-process helper of the end-to-end benchmark (run.py).
///
///   spire_e2e gen <dir>
///       Writes the workload sources: the 11 Table-1 programs of
///       benchmarks::allBenchmarks() as <name>.tower, the scale program
///       as f.tower, and programs.tsv (name, group, entry, size-indexed).
///
///   spire_e2e trace <plan> <seconds> <units.jsonl> <trace.json> <workdir>
///       The traced run. Repeats the plan's units (the same units run.py
///       times through spirec) in rounds until <seconds> have passed, at
///       least one round. Each unit compiles through driver::Service or
///       driver::CompilationPipeline, as spirec does, with obs::Tracer on:
///       the library's own spans (every pipeline stage, every qopt pass,
///       service/request) are the layer spans. The benchmark adds spans
///       only around the calls spirec makes outside the pipeline: reading
///       and writing files, rendering the final circuit and the artifact
///       cache. Spans stay in memory until the end, when they are written
///       as a Chrome trace (open it in Perfetto). Each unit also yields
///       one JSON line: its wall-clock, the self time of every layer span
///       inside it, and the layer work counts read from obs::Registry and
///       the stage span args.
///
/// Plan lines: `<kind> <name> <in> <out> <entry> <size> <word-bits>
/// <max-inline-instances> <max-inline-depth> <format> <circuit-opt>`,
/// `-` for an unused field. Kinds: `report` (--report), `emit` (--emit
/// <format>), `copt` (--circuit-opt), `session` (a fresh artifact cache
/// for the serve requests that follow) and `request` (one serve request).
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "driver/Pipeline.h"
#include "driver/Service.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/AllocStats.h"
#include "support/ArtifactCache.h"
#include "support/FileIO.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace spire;

namespace {

/// The `bench_pipeline_scale` size program: linear recursion, one adder
/// and one call per level.
const char ScaleSource[] = "fun f[n](a: uint) -> uint {\n"
                           "  let a2 <- a + 1;\n"
                           "  let out <- f[n-1](a2);\n"
                           "  return out;\n"
                           "}\n";

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "spire_e2e: error: %s\n", Message.c_str());
  std::exit(1);
}

void writeOrDie(const std::string &Path, const std::string &Text) {
  std::string Error;
  if (!support::writeFileAtomic(Path, Text, Error))
    die(Error);
}

int runGen(const std::string &Dir) {
  std::string Tsv;
  for (const benchmarks::BenchmarkProgram &B : benchmarks::allBenchmarks()) {
    writeOrDie(Dir + "/" + B.Name + ".tower", B.Source);
    Tsv += B.Name + "\t" + B.Group + "\t" + B.Entry + "\t" +
           (B.SizeIndexed ? "1" : "0") + "\n";
  }
  writeOrDie(Dir + "/f.tower", ScaleSource);
  writeOrDie(Dir + "/programs.tsv", Tsv);
  return 0;
}

// -- Spans ---------------------------------------------------------------

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Events one unit may record. The largest unit (f at n=100000) records
/// well under a hundred: the lowerer batches its inline frames.
constexpr size_t UnitTraceCapacity = 1 << 12;

/// The layer a span is charged to. The benchmark's own spans carry
/// their layer name; the library's stage and pass spans are mapped here.
/// Other library spans (the qopt stage around its passes, the lowerer's
/// inline batches) return null and are charged to the enclosing layer.
const char *layerOf(const char *Span) {
  std::string_view S(Span);
  if (S.find('/') == std::string_view::npos &&
      S.find('.') != std::string_view::npos)
    return Span;
  static const std::pair<const char *, const char *> Map[] = {
      {"parse", "frontend.parse"},
      {"typecheck", "sema.typecheck"},
      {"lower", "lowering.lower"},
      {"spire-opt", "opt.spire"},
      {"circuit-compile", "circuit.compile"},
      {"estimate", "costmodel.analyze"},
      {"qopt/decompose-clifford+t", "decompose.cliffordt"},
      {"qopt/decompose-toffoli", "decompose.toffoli"},
      {"qopt/phase-fold", "qopt.phase_fold"},
      {"service/request", "driver.service"},
  };
  for (const auto &[Name, Layer] : Map)
    if (S == Name)
      return Layer;
  if (S.rfind("qopt/cancel-", 0) == 0)
    return "qopt.cancel";
  return nullptr;
}

struct SpanRec {
  const char *Name = "";
  const char *Layer = nullptr; ///< Null: charged to the enclosing layer.
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int Parent = -1;
  int Unit = 0;
  std::vector<obs::TraceArg> Args; ///< The end event's args.
};

/// Every span of the run, in begin order, for the Chrome trace.
std::vector<SpanRec> AllSpans;

/// Turns one unit's tracer events into spans appended to AllSpans;
/// \p OriginNs is the steady-clock instant of the tracer's enable().
/// Returns the index of the unit's first span.
size_t collectSpans(const std::vector<obs::TraceEvent> &Events,
                    uint64_t OriginNs, int Unit) {
  size_t From = AllSpans.size();
  std::vector<int> Open;
  for (const obs::TraceEvent &E : Events) {
    if (E.Phase == 'B') {
      SpanRec S;
      S.Name = E.Name;
      S.Layer = layerOf(E.Name);
      S.StartNs = OriginNs + E.TsNs;
      S.Parent = Open.empty() ? -1 : Open.back();
      S.Unit = Unit;
      AllSpans.push_back(std::move(S));
      Open.push_back(static_cast<int>(AllSpans.size()) - 1);
      continue;
    }
    if (Open.empty())
      die("unbalanced trace events");
    SpanRec &S = AllSpans[Open.back()];
    Open.pop_back();
    S.EndNs = OriginNs + E.TsNs;
    S.Args.assign(E.Args, E.Args + E.NumArgs);
  }
  if (!Open.empty())
    die("unbalanced trace events");
  return From;
}

double seconds(const SpanRec &S) {
  return static_cast<double>(S.EndNs - S.StartNs) / 1e9;
}

/// Self seconds per layer over AllSpans[From, end): each layer span's
/// duration minus that of the nearest layer spans below it.
std::map<std::string, double> selfSeconds(size_t From) {
  std::map<std::string, double> Self;
  for (size_t I = From; I < AllSpans.size(); ++I) {
    const SpanRec &S = AllSpans[I];
    if (!S.Layer)
      continue;
    Self[S.Layer] += seconds(S);
    int P = S.Parent;
    while (P >= 0 && !AllSpans[P].Layer)
      P = AllSpans[P].Parent;
    if (P >= 0)
      Self[AllSpans[P].Layer] -= seconds(S);
  }
  return Self;
}

/// Chrome trace-event JSON: one complete ("X") event per span, with the
/// unit id, the layer it is charged to and the library's span args.
std::string chromeJson(uint64_t OriginNs) {
  obs::JsonWriter W(0);
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  for (const SpanRec &S : AllSpans) {
    W.beginObject();
    W.kv("name", S.Name);
    W.kv("ph", "X");
    W.kv("pid", 1);
    W.kv("tid", 1);
    W.kv("ts", (S.StartNs - OriginNs) / 1e3, 12);
    W.kv("dur", (S.EndNs - S.StartNs) / 1e3, 12);
    W.key("args");
    W.beginObject();
    W.kv("unit", S.Unit);
    if (S.Layer)
      W.kv("layer", S.Layer);
    for (const obs::TraceArg &A : S.Args)
      W.kv(A.Key, A.Value);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.kv("displayTimeUnit", "ms");
  W.endObject();
  return W.take();
}

/// Runs \p F inside a span named \p Name (a string literal) and returns
/// its result.
template <typename Fn> auto spanned(const char *Name, Fn &&F) {
  obs::Span S(Name);
  return F();
}

// -- Units ---------------------------------------------------------------

struct Unit {
  std::string Kind, Name, In, Out, Entry, Format, CircuitOpt;
  int64_t Size = 0;
  unsigned WordBits = 8;
  unsigned MaxInst = 100000;
  unsigned MaxDepth = 100000;
};

std::vector<Unit> readPlan(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot read " + Path);
  std::vector<Unit> Units;
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream S(Line);
    std::vector<std::string> F;
    std::string Tok;
    while (S >> Tok)
      F.push_back(Tok == "-" ? "" : Tok);
    if (F.empty())
      continue;
    if (F.size() != 11)
      die("bad plan line: " + Line);
    Unit U;
    U.Kind = F[0];
    U.Name = F[1];
    U.In = F[2];
    U.Out = F[3];
    U.Entry = F[4];
    U.Size = F[5].empty() ? 0 : std::atoll(F[5].c_str());
    if (!F[6].empty())
      U.WordBits = static_cast<unsigned>(std::atoi(F[6].c_str()));
    if (!F[7].empty())
      U.MaxInst = static_cast<unsigned>(std::atoi(F[7].c_str()));
    if (!F[8].empty())
      U.MaxDepth = static_cast<unsigned>(std::atoi(F[8].c_str()));
    U.Format = F[9];
    U.CircuitOpt = F[10];
    Units.push_back(std::move(U));
  }
  return Units;
}

/// One unit's outcome: work counts and output figures, written next to
/// the span self times.
using Counts = std::map<std::string, int64_t>;

struct UnitResult {
  bool OK = true;
  std::string Error;
  Counts C;

  void fail(std::string Message) {
    OK = false;
    Error = std::move(Message);
  }
};

/// The pipeline options spirec builds from the unit's flags; the kinds
/// differ as spirec's modes do (--report turns the cost analysis on,
/// --emit and serve build the circuit, --circuit-opt picks a baseline).
driver::PipelineOptions pipelineFor(const Unit &U) {
  driver::PipelineOptions Pipe =
      driver::PipelineOptions::forEntry(U.Entry, U.Size);
  Pipe.Target.WordBits = U.WordBits;
  Pipe.MaxInlineInstances = U.MaxInst;
  Pipe.MaxInlineDepth = U.MaxDepth;
  Pipe.AnalyzeCost = U.Kind == "report";
  Pipe.BuildCircuit = U.Kind != "report";
  if (U.Kind == "emit") {
    std::optional<interchange::Format> F =
        interchange::formatFromName(U.Format);
    if (!F)
      die("bad emit format " + U.Format);
    Pipe.OutputFormat = *F;
  }
  if (U.Kind == "copt") {
    using K = driver::CircuitOptimizerKind;
    static const std::pair<const char *, K> Kinds[] = {
        {"peephole", K::Peephole},
        {"rotation", K::RotationMerging},
        {"cliffordt-cancel", K::CliffordTCancel},
        {"toffoli-cancel", K::ToffoliCancel},
    };
    bool Found = false;
    for (const auto &[Name, Kind] : Kinds)
      if (U.CircuitOpt == Name) {
        Pipe.CircuitOpt = Kind;
        Found = true;
      }
    if (!Found)
      die("unknown circuit optimizer " + U.CircuitOpt);
  }
  return Pipe;
}

std::string readInput(const Unit &U, UnitResult &R) {
  std::string Text, Error;
  if (!spanned("support.read",
               [&] { return support::readFile(U.In, Text, Error); }))
    R.fail(Error);
  return Text;
}

void writeOutput(const Unit &U, const std::string &Text, UnitResult &R) {
  std::string Error;
  if (!spanned("support.write", [&] {
        return support::writeFileAtomic(U.Out, Text, Error);
      }))
    R.fail(Error);
}

/// Runs the pipeline as spirec does for a --report, --emit or
/// --circuit-opt invocation; renders and writes the circuit when one was
/// built.
void runCompile(const Unit &U, UnitResult &R) {
  std::string Source = readInput(U, R);
  if (!R.OK)
    return;
  driver::CompilationPipeline Pipeline(pipelineFor(U));
  driver::CompilationResult CR = Pipeline.run(Source);
  if (!CR.succeeded()) {
    R.fail(CR.Diags.str());
    return;
  }
  if (U.Kind == "report") {
    R.C["mcx_before"] = CR.UnoptimizedCost->MCX;
    R.C["t_before"] = CR.UnoptimizedCost->T;
    R.C["mcx_after"] = CR.OptimizedCost->MCX;
    R.C["t_after"] = CR.OptimizedCost->T;
    return;
  }
  int64_t RSS = support::peakRSSKb();
  std::string Text =
      spanned(Pipeline.options().OutputFormat == interchange::Format::Qasm3
                  ? "interchange.render_qasm3"
                  : "interchange.render_qc",
              [&] { return Pipeline.renderFinalCircuit(CR); });
  R.C["interchange.rss_delta_kb"] += support::peakRSSKb() - RSS;
  R.C["interchange.render_bytes"] += static_cast<int64_t>(Text.size());
  writeOutput(U, Text, R);
}

struct ServeState {
  std::unique_ptr<support::ArtifactCache> Cache;
  int Sessions = 0;
};

/// One serve request, as spirec --serve runs it: key, lookup, and on a
/// miss a compile through driver::Service and a store; then the response
/// write. The Service here has no cache of its own, so the cache calls
/// get spans of their own.
void runRequest(const Unit &U, ServeState &S, UnitResult &R) {
  if (!S.Cache)
    die("request before session in plan");
  std::string Source = readInput(U, R);
  if (!R.OK)
    return;
  driver::PipelineOptions Pipe = pipelineFor(U);
  driver::CacheKey Key = spanned(
      "cache.key", [&] { return driver::cacheKeyFor(Pipe, Source); });
  std::optional<std::string> Artifact = spanned(
      "cache.lookup", [&] { return S.Cache->lookup(Key.Hi, Key.Lo); });
  R.C["cache.hits"] += Artifact ? 1 : 0;
  R.C["cache.misses"] += Artifact ? 0 : 1;
  if (!Artifact) {
    driver::ServiceResponse Resp =
        driver::Service().handle(driver::ServiceRequest{Pipe, Source});
    if (!Resp.OK) {
      R.fail(Resp.Error);
      return;
    }
    spanned("cache.store",
            [&] { return S.Cache->store(Key.Hi, Key.Lo, Resp.Artifact); });
    Artifact = std::move(Resp.Artifact);
  }
  writeOutput(U, *Artifact, R);
}

void openSession(const std::string &WorkDir, ServeState &S) {
  support::CacheConfig Config;
  Config.Dir = WorkDir + "/cache-" + std::to_string(S.Sessions++);
  Config.ToolVersion = driver::toolVersion();
  std::string Error;
  S.Cache = support::ArtifactCache::open(Config, Error);
  if (!S.Cache)
    die("cannot open cache: " + Error);
}

/// Registry counters read around every unit, and the count names they
/// are reported under.
const std::pair<const char *, const char *> RegistryCounts[] = {
    {"stage.lower.allocs", "lowering.allocs"},
    {"lower.inline_instances", "lowering.inline_instances"},
    {"costmodel.profile_cache.hits", "costmodel.profile_hits"},
    {"costmodel.profile_cache.misses", "costmodel.profile_misses"},
    {"qopt.cancelled_pairs", "qopt.cancelled_pairs"},
    {"qopt.merged_rotations", "qopt.merged_rotations"},
    {"qopt.worklist_visits", "qopt.worklist_visits"},
};

std::vector<int64_t> readRegistry() {
  std::vector<int64_t> V;
  for (const auto &[Name, Count] : RegistryCounts)
    V.push_back(obs::Registry::global().counter(Name).value());
  return V;
}

/// Counts carried as args of the circuit-compile stage span.
void addStageArgs(size_t From, Counts &C) {
  for (size_t I = From; I < AllSpans.size(); ++I) {
    if (std::strcmp(AllSpans[I].Name, "circuit-compile") != 0)
      continue;
    for (const obs::TraceArg &A : AllSpans[I].Args) {
      if (std::strcmp(A.Key, "gates") == 0)
        C["circuit.gates"] += A.Value;
      if (std::strcmp(A.Key, "peak_rss_delta_kb") == 0)
        C["circuit.rss_delta_kb"] += A.Value;
    }
  }
}

const char *rootSpanName(const std::string &Kind) {
  if (Kind == "report")
    return "unit.report";
  if (Kind == "emit")
    return "unit.emit";
  if (Kind == "copt")
    return "unit.copt";
  if (Kind == "request")
    return "unit.request";
  die("unknown unit kind " + Kind);
}

int runTrace(const std::string &PlanPath, double Seconds,
             const std::string &UnitsPath, const std::string &TracePath,
             const std::string &WorkDir) {
  std::vector<Unit> Plan = readPlan(PlanPath);
  obs::Tracer &Tracer = obs::Tracer::global();
  std::string Out;
  uint64_t Origin = nowNs();
  ServeState Serve;
  int Round = 0;
  int UnitId = 0;
  do {
    for (const Unit &U : Plan) {
      if (U.Kind == "session") {
        openSession(WorkDir, Serve);
        continue;
      }
      UnitResult R;
      std::vector<int64_t> Before = readRegistry();
      Tracer.enable(UnitTraceCapacity);
      uint64_t Start = nowNs();
      {
        obs::Span Root(rootSpanName(U.Kind));
        if (U.Kind == "request")
          runRequest(U, Serve, R);
        else
          runCompile(U, R);
      }
      double Wall = static_cast<double>(nowNs() - Start) / 1e9;
      Tracer.disable();
      if (Tracer.droppedEvents() != 0)
        die("trace ring overflowed; raise UnitTraceCapacity");
      size_t From = collectSpans(Tracer.events(), Start, UnitId);
      std::vector<int64_t> After = readRegistry();
      for (size_t I = 0; I < After.size(); ++I)
        R.C[RegistryCounts[I].second] += After[I] - Before[I];
      addStageArgs(From, R.C);

      obs::JsonWriter W(0);
      W.beginObject();
      W.kv("round", Round);
      W.kv("unit", UnitId);
      W.kv("kind", U.Kind);
      W.kv("name", U.Name);
      W.kv("ok", R.OK);
      if (!R.OK)
        W.kv("error", R.Error);
      W.kv("wall_s", Wall, 9);
      W.key("self_s");
      W.beginObject();
      for (const auto &[Layer, Secs] : selfSeconds(From))
        W.kv(Layer, Secs, 9);
      W.endObject();
      W.key("counts");
      W.beginObject();
      for (const auto &[Name, N] : R.C)
        W.kv(Name, N);
      W.endObject();
      W.endObject();
      Out += W.take() + "\n";
      ++UnitId;
    }
    ++Round;
  } while (static_cast<double>(nowNs() - Origin) / 1e9 < Seconds);
  writeOrDie(UnitsPath, Out);
  writeOrDie(TracePath, chromeJson(Origin) + "\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  if (Args.size() == 2 && Args[0] == "gen")
    return runGen(Args[1]);
  if (Args.size() == 6 && Args[0] == "trace")
    return runTrace(Args[1], std::atof(Args[2].c_str()), Args[3], Args[4],
                    Args[5]);
  std::fprintf(stderr,
               "usage: spire_e2e gen <dir>\n"
               "       spire_e2e trace <plan> <seconds> <units.jsonl> "
               "<trace.json> <workdir>\n");
  return 2;
}
