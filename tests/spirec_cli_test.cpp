//===----------------------------------------------------------------------===//
// Regression tests for the spirec command-line driver's error paths:
// every CLI mistake (missing input file, unknown flag, missing --entry,
// bad --emit level, bad --circuit-opt name) must exit 2 with a
// diagnostic on stderr — never crash or silently succeed — while compile
// errors exit 1 and successful runs exit 0.
//
// The spirec binary path arrives in the SPIREC environment variable,
// set by CTest from $<TARGET_FILE:spirec>.
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <sys/wait.h>

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Stderr;
};

std::string spirecPath() {
  const char *Path = std::getenv("SPIREC");
  return Path ? Path : "";
}

/// Runs spirec with `Args`, discarding stdout and capturing stderr.
RunResult runSpirec(const std::string &Args) {
  std::string Cmd =
      "'" + spirecPath() + "' " + Args + " 2>&1 >/dev/null";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  RunResult R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    R.Stderr.append(Buf, N);
  int Status = pclose(Pipe);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status)
                                 : 128 + WTERMSIG(Status);
  return R;
}

/// Writes a known-good Tower program to a temp path and returns it.
std::string writeGoodProgram() {
  std::string Path = ::testing::TempDir() + "spirec_cli_good.tower";
  std::ofstream Out(Path);
  Out << "fun f(x: bool) {\n"
         "  let y <- not x;\n"
         "  return y;\n"
         "}\n";
  return Path;
}

/// Writes a file that does not parse.
std::string writeBadProgram() {
  std::string Path = ::testing::TempDir() + "spirec_cli_bad.tower";
  std::ofstream Out(Path);
  Out << "fun broken( {\n";
  return Path;
}

} // namespace

TEST(SpirecCli, BinaryPathIsConfigured) {
  ASSERT_FALSE(spirecPath().empty())
      << "SPIREC env var not set; run via ctest";
}

TEST(SpirecCli, NoArgumentsIsUsageError) {
  RunResult R = runSpirec("");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("no input file"), std::string::npos) << R.Stderr;
}

TEST(SpirecCli, MissingInputFileExitsTwo) {
  RunResult R = runSpirec("/nonexistent/prog.tower --entry f");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("cannot read"), std::string::npos) << R.Stderr;
}

TEST(SpirecCli, MissingQcInputFileExitsTwo) {
  RunResult R = runSpirec("--qc-in /nonexistent/circ.qc");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("cannot read"), std::string::npos) << R.Stderr;
}

TEST(SpirecCli, UnknownFlagExitsTwo) {
  RunResult R = runSpirec(writeGoodProgram() + " --entry f --frobnicate");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("unknown option --frobnicate"),
            std::string::npos)
      << R.Stderr;
}

TEST(SpirecCli, MissingEntryExitsTwo) {
  RunResult R = runSpirec(writeGoodProgram());
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("--entry is required"), std::string::npos)
      << R.Stderr;
}

TEST(SpirecCli, BadEmitLevelExitsTwo) {
  RunResult R = runSpirec(writeGoodProgram() + " --entry f --emit qasm");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("--emit must be"), std::string::npos)
      << R.Stderr;
}

TEST(SpirecCli, BadBasisNameExitsTwo) {
  RunResult R = runSpirec(writeGoodProgram() + " --entry f --basis qft");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("--basis must be"), std::string::npos)
      << R.Stderr;
}

TEST(SpirecCli, LegacyLevelAndBasisAreExclusiveOnTowerInput) {
  // A legacy --emit level is a basis, on the Tower axis as on the
  // circuit-input axis, so it cannot be combined with --basis.
  RunResult R = runSpirec(writeGoodProgram() +
                          " --entry f --emit toffoli --basis cx");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("mutually exclusive"), std::string::npos)
      << R.Stderr;
}

TEST(SpirecCli, QcInAndQasmInAreExclusive) {
  RunResult R = runSpirec("--qc-in a.qc --qasm-in b.qasm");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("mutually exclusive"), std::string::npos)
      << R.Stderr;
}

TEST(SpirecCli, MissingQasmInputFileExitsTwo) {
  RunResult R = runSpirec("--qasm-in /nonexistent/circ.qasm");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("cannot read"), std::string::npos) << R.Stderr;
}

TEST(SpirecCli, MalformedQasmInputExitsOne) {
  std::string Path = ::testing::TempDir() + "spirec_cli_bad.qasm";
  {
    std::ofstream Out(Path);
    Out << "OPENQASM 3.0;\nqubit[2] q;\nfrobnicate q[0];\n";
  }
  RunResult R = runSpirec("--qasm-in " + Path);
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Stderr.find("unknown or unsupported gate"), std::string::npos)
      << R.Stderr;
  EXPECT_NE(R.Stderr.find("circuit-compile stage"), std::string::npos)
      << R.Stderr;
}

TEST(SpirecCli, BadCircuitOptNameExitsTwo) {
  RunResult R =
      runSpirec(writeGoodProgram() + " --entry f --circuit-opt magic");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("unknown --circuit-opt"), std::string::npos)
      << R.Stderr;
}

TEST(SpirecCli, MissingFlagValueExitsTwo) {
  RunResult R = runSpirec(writeGoodProgram() + " --entry");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("missing value"), std::string::npos) << R.Stderr;
}

TEST(SpirecCli, UnwritableOutputPathExitsTwo) {
  RunResult R = runSpirec(writeGoodProgram() +
                          " --entry f --emit mcx -o /nonexistent-dir/o.qc");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("cannot open"), std::string::npos) << R.Stderr;

  // The -o path is probed before the compile starts: no stage runs, so
  // --timings prints no stage row.
  R = runSpirec(writeGoodProgram() +
                " --entry f --emit mcx --timings -o /nonexistent-dir/o.qc");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("cannot open"), std::string::npos) << R.Stderr;
  EXPECT_EQ(R.Stderr.find("spirec: parse"), std::string::npos) << R.Stderr;
}

TEST(SpirecCli, ParseErrorExitsOneWithStageDiagnostic) {
  RunResult R = runSpirec(writeBadProgram() + " --entry broken");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Stderr.find("error"), std::string::npos) << R.Stderr;
  EXPECT_NE(R.Stderr.find("parse stage"), std::string::npos) << R.Stderr;
}

TEST(SpirecCli, UnknownEntryExitsOneWithStageDiagnostic) {
  RunResult R = runSpirec(writeGoodProgram() + " --entry nope");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Stderr.find("entry function 'nope' not found"),
            std::string::npos)
      << R.Stderr;
  EXPECT_NE(R.Stderr.find("typecheck stage"), std::string::npos)
      << R.Stderr;
}

TEST(SpirecCli, GoodProgramSucceeds) {
  RunResult R = runSpirec(writeGoodProgram() + " --entry f --report");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Stderr, "") << R.Stderr;
}

TEST(SpirecCli, ReportWithCircuitInputExitsTwo) {
  // Cost analysis needs the lowered IR, which circuit inputs lack; the
  // old driver silently ignored --report here, the unified pipeline
  // must reject it (dereferencing the absent cost was UB).
  RunResult R = runSpirec("--qc-in a.qc --report");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("--report needs a Tower program"),
            std::string::npos)
      << R.Stderr;
}

TEST(SpirecCli, RunWithCircuitInputExitsTwo) {
  RunResult R = runSpirec("--qc-in a.qc --run x=1");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("--run needs a Tower program"), std::string::npos)
      << R.Stderr;
}

TEST(SpirecCli, CheckEquivSamplesFlagWorks) {
  // The good program compiles to an 18-wire X-only circuit: within the
  // bit-sliced backend's exhaustive threshold, so even a 2-sample
  // request is upgraded to a sweep of all 2^18 basis states.
  std::string Program = writeGoodProgram();
  std::string Qc = ::testing::TempDir() + "spirec_cli_equiv.qc";
  RunResult Emit = runSpirec("'" + Program + "' --entry f --emit qc -o '" +
                             Qc + "'");
  ASSERT_EQ(Emit.ExitCode, 0) << Emit.Stderr;
  RunResult R = runSpirec("'" + Program + "' --entry f --emit qc -o " +
                          "/dev/null --check-equiv '" + Qc +
                          "' --check-equiv-samples 2");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(
      R.Stderr.find("equivalent on all 262144 basis states (exhaustive)"),
      std::string::npos)
      << R.Stderr;
}

TEST(SpirecCli, CheckEquivSamplesAboveStateSpaceClampsToExhaustive) {
  // The good program compiles to 2 variable qubits plus the 16 default
  // 1-bit heap cells: 18 wires, 2^18 = 262144 distinct basis states.
  // For classical circuits an over-request is satisfied exactly by the
  // exhaustive sweep — every distinct state checked once — so it
  // succeeds rather than erroring.
  std::string Program = writeGoodProgram();
  std::string Qc = ::testing::TempDir() + "spirec_cli_equiv2.qc";
  RunResult Emit = runSpirec("'" + Program + "' --entry f --emit qc -o '" +
                             Qc + "'");
  ASSERT_EQ(Emit.ExitCode, 0) << Emit.Stderr;
  RunResult R = runSpirec("'" + Program + "' --entry f --emit qc -o " +
                          "/dev/null --check-equiv '" + Qc +
                          "' --check-equiv-samples 300000");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(
      R.Stderr.find("equivalent on all 262144 basis states (exhaustive)"),
      std::string::npos)
      << R.Stderr;
}

TEST(SpirecCli, CheckEquivOverRequestOnNonClassicalIsDiagnosed) {
  // Non-classical circuits cannot take the exhaustive bit-sliced path,
  // so an explicit request above the state space stays an error.
  std::string Qc = ::testing::TempDir() + "spirec_cli_hadamard.qc";
  {
    std::ofstream Out(Qc);
    Out << ".v q0 q1 q2\n\nBEGIN\nH q0\ntof q0 q1\nEND\n";
  }
  RunResult R = runSpirec("--qc-in '" + Qc + "' --emit qc -o /dev/null "
                          "--check-equiv '" + Qc +
                          "' --check-equiv-samples 300000");
  EXPECT_EQ(R.ExitCode, 2) << R.Stderr;
  EXPECT_NE(R.Stderr.find("distinct basis states"), std::string::npos)
      << R.Stderr;
}

TEST(SpirecCli, TimingsReportEquivalenceThroughput) {
  // --timings alongside --check-equiv reports the backend used and the
  // sweep's states/sec so bench regressions are visible from the CLI.
  std::string Program = writeGoodProgram();
  std::string Qc = ::testing::TempDir() + "spirec_cli_equiv3.qc";
  RunResult Emit = runSpirec("'" + Program + "' --entry f --emit qc -o '" +
                             Qc + "'");
  ASSERT_EQ(Emit.ExitCode, 0) << Emit.Stderr;
  RunResult R = runSpirec("'" + Program + "' --entry f --emit qc -o " +
                          "/dev/null --check-equiv '" + Qc +
                          "' --timings");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(R.Stderr.find("bit-sliced backend"), std::string::npos)
      << R.Stderr;
  EXPECT_NE(R.Stderr.find("states/sec"), std::string::npos) << R.Stderr;
}

TEST(SpirecCli, CheckEquivSamplesRejectsNonPositive) {
  std::string Program = writeGoodProgram();
  RunResult R = runSpirec("'" + Program + "' --entry f --emit qc "
                          "--check-equiv-samples 0");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("--check-equiv-samples"), std::string::npos)
      << R.Stderr;
}

TEST(SpirecCli, TimingsReportAllocationColumns) {
  std::string Program = writeGoodProgram();
  RunResult R = runSpirec("'" + Program + "' --entry f --timings");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(R.Stderr.find("allocs"), std::string::npos) << R.Stderr;
  EXPECT_NE(R.Stderr.find("KiB peak RSS"), std::string::npos) << R.Stderr;
}

namespace {

/// Reads a whole file; empty string when it cannot be opened.
std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// Counts non-overlapping occurrences of Needle in S.
size_t countOccurrences(const std::string &S, const std::string &Needle) {
  size_t N = 0;
  for (size_t At = S.find(Needle); At != std::string::npos;
       At = S.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

/// Value of counter `Name` in a spire-metrics-v1 report, or -1.
int64_t metricsCounter(const std::string &Json, const std::string &Name) {
  size_t At = Json.find("\"" + Name + "\": {");
  if (At == std::string::npos)
    return -1;
  At = Json.find("\"value\": ", At);
  if (At == std::string::npos)
    return -1;
  return std::stoll(Json.substr(At + 9));
}

} // namespace

TEST(SpirecCli, TraceJsonEmitsBalancedChromeTrace) {
  std::string Trace = ::testing::TempDir() + "spirec_cli_trace.json";
  RunResult R = runSpirec(writeGoodProgram() + " --entry f --emit qc -o "
                          "/dev/null --circuit-opt cliffordt-cancel "
                          "--trace-json '" + Trace + "'");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  std::string Json = slurp(Trace);
  ASSERT_FALSE(Json.empty());
  EXPECT_NE(Json.find("\"traceEvents\":["), std::string::npos);
  // Every begin pairs with an end, and the stage + pass spans are there.
  EXPECT_EQ(countOccurrences(Json, "\"ph\":\"B\""),
            countOccurrences(Json, "\"ph\":\"E\""))
      << Json;
  for (const char *Span :
       {"\"name\":\"parse\"", "\"name\":\"typecheck\"",
        "\"name\":\"lower\"", "\"name\":\"qopt\"",
        "\"name\":\"qopt/decompose-clifford+t\""})
    EXPECT_NE(Json.find(Span), std::string::npos) << Span;
}

TEST(SpirecCli, MetricsJsonIsWellFormedSuperset) {
  std::string Metrics = ::testing::TempDir() + "spirec_cli_metrics.json";
  RunResult R = runSpirec(writeGoodProgram() + " --entry f --emit qc -o "
                          "/dev/null --circuit-opt cliffordt-cancel "
                          "--metrics-json '" + Metrics + "'");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  std::string Json = slurp(Metrics);
  ASSERT_FALSE(Json.empty());
  EXPECT_NE(Json.find("\"schema\": \"spire-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"succeeded\": true"), std::string::npos);
  EXPECT_NE(Json.find("\"stage\": \"qopt\""), std::string::npos);
  EXPECT_NE(Json.find("\"qopt_stats\":"), std::string::npos);
  EXPECT_NE(Json.find("\"symbols.interned\":"), std::string::npos);
}

TEST(SpirecCli, MetricsJsonWrittenOnCompileFailure) {
  // A failed compile still reports: exit 1 from the compile, but the
  // metrics file names the failing stage.
  std::string Metrics = ::testing::TempDir() + "spirec_cli_metrics_fail.json";
  RunResult R = runSpirec(writeBadProgram() + " --entry broken "
                          "--metrics-json '" + Metrics + "'");
  EXPECT_EQ(R.ExitCode, 1);
  std::string Json = slurp(Metrics);
  EXPECT_NE(Json.find("\"succeeded\": false"), std::string::npos);
  EXPECT_NE(Json.find("\"failed_stage\": \"parse\""), std::string::npos);
}

TEST(SpirecCli, UnwritableTraceJsonPathExitsTwo) {
  RunResult R = runSpirec(writeGoodProgram() + " --entry f "
                          "--trace-json /nonexistent-dir/t.json");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("cannot open"), std::string::npos) << R.Stderr;
}

TEST(SpirecCli, UnwritableMetricsJsonPathExitsTwo) {
  RunResult R = runSpirec(writeGoodProgram() + " --entry f "
                          "--metrics-json /nonexistent-dir/m.json");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("cannot open"), std::string::npos) << R.Stderr;
}

TEST(SpirecCli, TimingsReportCacheAndSymbolCounters) {
  std::string Program = writeGoodProgram();
  RunResult R = runSpirec("'" + Program + "' --entry f --report --timings");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(R.Stderr.find("costmodel profile cache"), std::string::npos)
      << R.Stderr;
  EXPECT_NE(R.Stderr.find("interned"), std::string::npos) << R.Stderr;

  // The counters must also be right, not just printed: every inlined
  // instance of a recursive program repeats the same few primitive
  // shapes under fresh names, so misses are constant in the size and
  // nearly every lookup hits.
  std::string Source = ::testing::TempDir() + "spirec_cli_recursive.tower";
  std::ofstream(Source) << "fun f[n](a: uint) -> uint {\n"
                           "  let a2 <- a + 1;\n"
                           "  let out <- f[n-1](a2);\n"
                           "  return out;\n"
                           "}\n";
  int64_t Hits[2], Misses[2];
  const int Sizes[2] = {100, 1000};
  for (int I = 0; I != 2; ++I) {
    std::string Metrics = ::testing::TempDir() + "spirec_cli_cache_" +
                          std::to_string(Sizes[I]) + ".json";
    RunResult Run = runSpirec("'" + Source + "' --entry f --size " +
                              std::to_string(Sizes[I]) +
                              " --report --metrics-json '" + Metrics + "'");
    ASSERT_EQ(Run.ExitCode, 0) << Run.Stderr;
    std::string Json = slurp(Metrics);
    Hits[I] = metricsCounter(Json, "costmodel.profile_cache.hits");
    Misses[I] = metricsCounter(Json, "costmodel.profile_cache.misses");
    ASSERT_GT(Misses[I], 0) << Json;
  }
  EXPECT_EQ(Misses[0], Misses[1]);
  EXPECT_GT(Hits[1], Hits[0]);
  EXPECT_GE(Hits[1] * 100, (Hits[1] + Misses[1]) * 95)
      << Hits[1] << " hits, " << Misses[1] << " misses";
}

TEST(SpirecCli, DefaultCheckEquivSamplesAdaptToSmallCircuits) {
  // With --heap-cells 1 the good program compiles to 3 wires (2
  // variables + one 1-bit cell): 8 distinct basis states, all of which
  // the exhaustive sweep covers in a single bit-sliced block.
  std::string Program = writeGoodProgram();
  std::string Qc = ::testing::TempDir() + "spirec_cli_tiny.qc";
  RunResult Emit = runSpirec("'" + Program + "' --entry f --heap-cells 1 "
                             "--emit qc -o '" + Qc + "'");
  ASSERT_EQ(Emit.ExitCode, 0) << Emit.Stderr;
  RunResult R = runSpirec("'" + Program + "' --entry f --heap-cells 1 "
                          "--emit qc -o /dev/null --check-equiv '" + Qc +
                          "'");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(R.Stderr.find("equivalent on all 8 basis states (exhaustive)"),
            std::string::npos)
      << R.Stderr;
}
