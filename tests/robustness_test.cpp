//===----------------------------------------------------------------------===//
// Robustness suite for PR 9's failure-containment layer:
//
//   - Governor: deadline / allocation / gate / output budgets trip
//     cleanly (library-level), the CLI reports `resource-limit`, exits
//     2, still writes --metrics-json with succeeded:false + limit_hit,
//     and a --timeout-ms deadline terminates a runaway --size 1000000
//     compile within 2x of the budget.
//   - Fault injection: the full site x kind matrix from
//     support::faultSiteCatalog(), each run in a spirec subprocess with
//     SPIRE_FAULT armed — every fault must convert into a diagnostic
//     and a nonzero exit, never a crash (signal exits fail the test,
//     and the whole suite runs under ASan/UBSan in CI).
//   - Atomic writes: an injected I/O fault between temp-staging and
//     rename leaves no torn or partial artifact behind.
//   - Adversarial inputs: every file in tests/fuzz_corpus/ (plus a
//     generated 1M-deep `ctrl @` nesting) must diagnose, not crash.
//   - Batch isolation: one poisoned input in a --batch list fails alone.
//
// The spirec binary path arrives in the SPIREC environment variable and
// the corpus directory in SPIRE_FUZZ_CORPUS_DIR, both set by CTest.
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"
#include "support/FileIO.h"
#include "support/Governor.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace spire;

namespace {

std::string spirecPath() {
  const char *Path = std::getenv("SPIREC");
  return Path ? Path : "";
}

std::string corpusDir() {
#ifdef SPIRE_FUZZ_CORPUS_DIR
  return SPIRE_FUZZ_CORPUS_DIR;
#else
  return "";
#endif
}

struct RunResult {
  int ExitCode = -1;
  bool Signalled = false;
  std::string Output; ///< stderr + stdout, interleaved.
};

/// Runs spirec with \p Args (optionally with SPIRE_FAULT=\p Fault in the
/// environment), capturing stderr and stdout together.
RunResult runSpirec(const std::string &Args, const std::string &Fault = "") {
  std::string Cmd;
  if (!Fault.empty())
    Cmd += "SPIRE_FAULT='" + Fault + "' ";
  Cmd += "'" + spirecPath() + "' " + Args + " 2>&1";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  RunResult R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    R.Output.append(Buf, N);
  int Status = pclose(Pipe);
  if (WIFEXITED(Status)) {
    R.ExitCode = WEXITSTATUS(Status);
  } else {
    R.Signalled = true;
    R.ExitCode = 128 + WTERMSIG(Status);
  }
  return R;
}

std::string writeTempFile(const std::string &Name, const std::string &Text) {
  std::string Path = ::testing::TempDir() + Name;
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return Path;
}

std::string readWholeFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

/// A program with a Toffoli in it, so legalize (--basis cx) has real
/// work and every qopt decomposition pass transforms something.
std::string goodTowerProgram() {
  return writeTempFile("robustness_good.tower",
                       "fun f(a: bool, b: bool) {\n"
                       "  let y <- a && b;\n"
                       "  return y;\n"
                       "}\n");
}

std::string goodQcCircuit() {
  return writeTempFile("robustness_good.qc",
                       ".v q0 q1 q2\n\nBEGIN\ntof q0 q1 q2\ntof q0 q1\n"
                       "END\n");
}

std::string goodQasmCircuit() {
  return writeTempFile("robustness_good.qasm",
                       "OPENQASM 3.0;\ninclude \"stdgates.inc\";\n"
                       "qubit[3] q;\nccx q[0], q[1], q[2];\n"
                       "cx q[0], q[1];\n");
}

/// The Fig. 1 list-length benchmark: compiles for a long time at large
/// --size, which is what the deadline tests need.
std::string lengthProgram() {
  return writeTempFile(
      "robustness_length.tower",
      "type list = (uint, ptr<list>);\n"
      "fun length[n](xs: ptr<list>, acc: uint) {\n"
      "  with {\n"
      "    let is_empty <- xs == null;\n"
      "  } do if is_empty {\n"
      "    let out <- acc;\n"
      "  } else with {\n"
      "    let temp <- default<list>;\n"
      "    *xs <-> temp;\n"
      "    let next <- temp.2;\n"
      "    let r <- acc + 1;\n"
      "  } do {\n"
      "    let out <- length[n-1](next, r);\n"
      "  }\n"
      "  return out;\n"
      "}\n");
}

} // namespace

//===----------------------------------------------------------------------===//
// Governor: library level
//===----------------------------------------------------------------------===//

TEST(Governor, DisarmedPollIsFree) {
  // No governor installed: poll always says keep-going.
  EXPECT_EQ(support::Governor::current(), nullptr);
  EXPECT_TRUE(support::Governor::poll());
  EXPECT_TRUE(support::Governor::pollGates(1 << 30));

  // A disarmed (no-budget) governor is not installed by its scope.
  support::Governor G{support::GovernorLimits{}};
  EXPECT_FALSE(G.enabled());
  support::GovernorScope Scope(&G);
  EXPECT_EQ(support::Governor::current(), nullptr);
}

TEST(Governor, DeadlineTrips) {
  support::GovernorLimits Limits;
  Limits.TimeoutMs = 1;
  support::Governor G(Limits);
  ASSERT_TRUE(G.enabled());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Strided checks: a burst of polls must cross a stride boundary.
  bool Stopped = false;
  for (int I = 0; I != 10000 && !Stopped; ++I)
    Stopped = !G.check();
  EXPECT_TRUE(Stopped);
  EXPECT_TRUE(G.exceeded());
  EXPECT_EQ(G.limit(), support::ResourceLimit::Deadline);
  EXPECT_NE(G.describe().find("wall-clock budget"), std::string::npos)
      << G.describe();

  // report() is one-shot: the trip surfaces as exactly one diagnostic
  // even when several checkpoints report it.
  support::DiagnosticEngine Diags;
  G.report(Diags);
  G.report(Diags);
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_NE(Diags.str().find("resource-limit"), std::string::npos)
      << Diags.str();
}

TEST(Governor, AllocBudgetTrips) {
  support::GovernorLimits Limits;
  Limits.MaxAllocBytes = 1 << 20; // 1 MiB
  support::Governor G(Limits);
  // Allocate well past the budget, then poll across a stride boundary.
  std::vector<std::unique_ptr<char[]>> Hunks;
  for (int I = 0; I != 64; ++I)
    Hunks.push_back(std::make_unique<char[]>(64 << 10));
  bool Stopped = false;
  for (int I = 0; I != 10000 && !Stopped; ++I)
    Stopped = !G.check();
  EXPECT_TRUE(Stopped);
  EXPECT_EQ(G.limit(), support::ResourceLimit::AllocBytes);
  EXPECT_NE(G.describe().find("allocation budget"), std::string::npos)
      << G.describe();
}

TEST(Governor, GateCapTrips) {
  support::GovernorLimits Limits;
  Limits.MaxGates = 100;
  support::Governor G(Limits);
  EXPECT_TRUE(G.checkGates(100));
  EXPECT_FALSE(G.checkGates(101));
  EXPECT_EQ(G.limit(), support::ResourceLimit::Gates);
  // Sticky: once tripped, every probe fails.
  EXPECT_FALSE(G.checkGates(1));
  EXPECT_FALSE(G.check());
}

TEST(Governor, OutputCapTrips) {
  support::GovernorLimits Limits;
  Limits.MaxOutputBytes = 4096;
  support::Governor G(Limits);
  EXPECT_TRUE(G.checkOutputBytes(4096));
  EXPECT_FALSE(G.checkOutputBytes(4097));
  EXPECT_EQ(G.limit(), support::ResourceLimit::OutputBytes);
}

TEST(Governor, ScopeInstallsAndRestores) {
  support::GovernorLimits Limits;
  Limits.MaxGates = 10;
  support::Governor G(Limits);
  EXPECT_EQ(support::Governor::current(), nullptr);
  {
    support::GovernorScope Scope(&G);
    EXPECT_EQ(support::Governor::current(), &G);
    EXPECT_FALSE(support::Governor::pollGates(11));
  }
  EXPECT_EQ(support::Governor::current(), nullptr);
}

//===----------------------------------------------------------------------===//
// Fault injector: library level
//===----------------------------------------------------------------------===//

TEST(FaultInjector, SpecParsing) {
  std::string Error;
  auto Spec = support::parseFaultSpec("site=qopt,kind=alloc,after=3", Error);
  ASSERT_TRUE(Spec.has_value()) << Error;
  EXPECT_EQ(Spec->Site, "qopt");
  EXPECT_EQ(Spec->Kind, support::FaultKind::Alloc);
  EXPECT_EQ(Spec->After, 3);

  EXPECT_FALSE(support::parseFaultSpec("site=x", Error).has_value());
  EXPECT_FALSE(support::parseFaultSpec("kind=alloc", Error).has_value());
  EXPECT_FALSE(support::parseFaultSpec("site=x,kind=bogus", Error));
  EXPECT_FALSE(support::parseFaultSpec("site=x,kind=io,after=-1", Error));
  EXPECT_FALSE(support::parseFaultSpec("nonsense", Error).has_value());
}

TEST(FaultInjector, FiresOnceAtSite) {
  support::armFault({"test/site", support::FaultKind::Diag, 0});
  support::DiagnosticEngine Diags;
  EXPECT_FALSE(support::faultDiag("other/site", Diags));
  EXPECT_TRUE(support::faultDiag("test/site", Diags));
  EXPECT_NE(Diags.str().find("injected fault at test/site"),
            std::string::npos);
  // One-shot: the same site never fires twice.
  EXPECT_FALSE(support::faultDiag("test/site", Diags));
  EXPECT_FALSE(support::faultArmed());
  support::disarmFault();
}

TEST(FaultInjector, AfterCountsArrivals) {
  support::armFault({"test/after", support::FaultKind::Alloc, 2});
  EXPECT_NO_THROW(support::faultAlloc("test/after"));
  EXPECT_NO_THROW(support::faultAlloc("test/after"));
  EXPECT_THROW(support::faultAlloc("test/after"), std::bad_alloc);
  support::disarmFault();
}

TEST(FaultInjector, CatalogHasEveryLayer) {
  const auto &Catalog = support::faultSiteCatalog();
  auto has = [&](const std::string &Name) {
    for (const auto &S : Catalog)
      if (Name == S.Name)
        return true;
    return false;
  };
  // Spot checks: one per layer; the matrix test exercises all of them.
  EXPECT_TRUE(has("parse"));
  EXPECT_TRUE(has("qopt/cancel-standard"));
  EXPECT_TRUE(has("read/qc"));
  EXPECT_TRUE(has("io/input"));
  EXPECT_TRUE(has("write/metrics"));
  EXPECT_TRUE(has("equiv/check"));
  EXPECT_TRUE(has("cache.read"));
  EXPECT_TRUE(has("cache.write"));
  EXPECT_GE(Catalog.size(), 24u);
  // Cache sites advertise the kill kind for the crash-consistency
  // matrix (tools/crash_check.py); nothing else does yet.
  for (const auto &S : Catalog)
    EXPECT_EQ(S.Kill, std::string(S.Name).rfind("cache.", 0) == 0)
        << S.Name;
}

//===----------------------------------------------------------------------===//
// Atomic writes
//===----------------------------------------------------------------------===//

TEST(AtomicWrite, InjectedIoFaultLeavesNoTornFile) {
  std::string Path = ::testing::TempDir() + "atomic_torn.txt";
  std::remove(Path.c_str());
  support::armFault({"test/write", support::FaultKind::Io, 0});
  std::string Error;
  EXPECT_FALSE(
      support::writeFileAtomic(Path, "payload", Error, "test/write"));
  support::disarmFault();
  EXPECT_FALSE(fileExists(Path)) << "fault must not create the artifact";
  EXPECT_FALSE(fileExists(Path + ".tmp." + std::to_string(getpid())))
      << "fault must not leak the temp file";
  EXPECT_NE(Error.find("injected fault"), std::string::npos) << Error;
}

TEST(AtomicWrite, FaultPreservesExistingDestination) {
  std::string Path = ::testing::TempDir() + "atomic_keep.txt";
  {
    std::ofstream Out(Path);
    Out << "original";
  }
  support::armFault({"test/write2", support::FaultKind::Io, 0});
  std::string Error;
  EXPECT_FALSE(
      support::writeFileAtomic(Path, "replacement", Error, "test/write2"));
  support::disarmFault();
  EXPECT_EQ(readWholeFile(Path), "original");
  std::remove(Path.c_str());
}

TEST(AtomicWrite, SucceedsAndReplaces) {
  std::string Path = ::testing::TempDir() + "atomic_ok.txt";
  std::string Error;
  ASSERT_TRUE(support::writeFileAtomic(Path, "one", Error)) << Error;
  ASSERT_TRUE(support::writeFileAtomic(Path, "two", Error)) << Error;
  EXPECT_EQ(readWholeFile(Path), "two");
  std::remove(Path.c_str());
}

TEST(AtomicWrite, DevNullIsWrittenDirectly) {
  std::string Error;
  EXPECT_TRUE(support::writeFileAtomic("/dev/null", "discard", Error))
      << Error;
  // /dev/null must still be a character device, not a regular file the
  // rename replaced.
  struct stat St;
  ASSERT_EQ(::stat("/dev/null", &St), 0);
  EXPECT_TRUE(S_ISCHR(St.st_mode));
}

TEST(AtomicWrite, ProbeDoesNotTruncate) {
  std::string Path = ::testing::TempDir() + "probe_keep.txt";
  {
    std::ofstream Out(Path);
    Out << "keep me";
  }
  std::string Error;
  EXPECT_TRUE(support::probeWritable(Path, Error)) << Error;
  EXPECT_EQ(readWholeFile(Path), "keep me");
  std::remove(Path.c_str());
  EXPECT_FALSE(support::probeWritable("/nonexistent-dir/x.json", Error));
}

TEST(AtomicWrite, ProbeDoesNotOpenAFifo) {
  // Opening a FIFO for writing blocks until a reader arrives (and would
  // hand a waiting reader an early end of file), so the probe checks a
  // non-regular destination by permission only. The alarm turns a
  // blocking probe into a failure instead of a hang.
  std::string Path = ::testing::TempDir() + "probe_fifo";
  std::remove(Path.c_str());
  ASSERT_EQ(::mkfifo(Path.c_str(), 0600), 0);
  std::string Error;
  ::alarm(10);
  EXPECT_TRUE(support::probeWritable(Path, Error)) << Error;
  ::alarm(0);
  struct stat St;
  ASSERT_EQ(::stat(Path.c_str(), &St), 0);
  EXPECT_TRUE(S_ISFIFO(St.st_mode));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Fault matrix: every cataloged site x kind through the spirec CLI
//===----------------------------------------------------------------------===//

namespace {

/// spirec arguments that reach the given injection site. Empty when the
/// site needs no extra mode flags beyond a plain Tower compile.
std::string argsForSite(const std::string &Site, const std::string &Tower,
                        const std::string &Qc, const std::string &Qasm,
                        const std::string &OutDir) {
  std::string TowerBase = Tower + " --entry f";
  if (Site == "read/qc")
    return "--qc-in " + Qc + " -o /dev/null";
  if (Site == "read/qasm3")
    return "--qasm-in " + Qasm + " -o /dev/null";
  if (Site == "equiv/check")
    return "--qc-in " + Qc + " --check-equiv " + Qc + " -o /dev/null";
  if (Site == "legalize")
    return TowerBase + " --basis cx -o /dev/null";
  if (Site == "estimate")
    return TowerBase + " --report";
  if (Site == "qopt/cancel-peephole")
    return TowerBase + " --emit qc -o /dev/null --circuit-opt peephole";
  if (Site == "qopt/decompose-toffoli" || Site == "qopt/cancel-exhaustive")
    return TowerBase + " --emit qc -o /dev/null --circuit-opt exhaustive";
  if (Site.rfind("qopt", 0) == 0) // the stage and the remaining passes
    return TowerBase +
           " --emit qc -o /dev/null --circuit-opt cliffordt-cancel";
  if (Site == "circuit-compile")
    return TowerBase + " --emit qc -o /dev/null";
  if (Site == "write/output")
    return TowerBase + " --emit qc -o " + OutDir + "fault_out.qc";
  if (Site == "write/metrics")
    return TowerBase + " --metrics-json " + OutDir + "fault_metrics.json";
  if (Site == "write/trace")
    return TowerBase + " --trace-json " + OutDir + "fault_trace.json";
  // parse, typecheck, lower, spire-opt, io/input: any Tower compile.
  return TowerBase;
}

} // namespace

TEST(FaultMatrix, EverySiteAndKindFailsCleanly) {
  ASSERT_FALSE(spirecPath().empty()) << "SPIREC env var not set";
  std::string Tower = goodTowerProgram();
  std::string Qc = goodQcCircuit();
  std::string Qasm = goodQasmCircuit();
  std::string OutDir = ::testing::TempDir();

  for (const support::FaultSite &Site : support::faultSiteCatalog()) {
    // The cache sites have the opposite contract — faults there degrade
    // to uncached operation and the compile *succeeds* — so they are
    // pinned by cache_test.cpp's degradation tests, not this matrix.
    if (std::string(Site.Name).rfind("cache.", 0) == 0)
      continue;
    std::vector<support::FaultKind> Kinds;
    if (Site.Alloc)
      Kinds.push_back(support::FaultKind::Alloc);
    if (Site.Io)
      Kinds.push_back(support::FaultKind::Io);
    if (Site.Diag)
      Kinds.push_back(support::FaultKind::Diag);
    ASSERT_FALSE(Kinds.empty()) << Site.Name;

    for (support::FaultKind Kind : Kinds) {
      std::string Fault = std::string("site=") + Site.Name +
                          ",kind=" + support::faultKindName(Kind);
      std::string Args =
          argsForSite(Site.Name, Tower, Qc, Qasm, OutDir);
      RunResult R = runSpirec(Args, Fault);
      SCOPED_TRACE(Fault + " | spirec " + Args + "\n" + R.Output);

      // The fault must fire (a clean exit 0 means the site was never
      // reached), must fail with a diagnostic, and must never crash.
      EXPECT_FALSE(R.Signalled);
      EXPECT_NE(R.ExitCode, 0);
      EXPECT_LT(R.ExitCode, 126);
      EXPECT_FALSE(R.Output.empty());
      // I/O faults are environment errors (exit 2); alloc and diag
      // faults are compile/runtime failures (exit 1).
      if (Kind == support::FaultKind::Io)
        EXPECT_EQ(R.ExitCode, 2);
      else
        EXPECT_EQ(R.ExitCode, 1);
    }
  }

  // The write-site faults must not have left torn artifacts behind.
  EXPECT_FALSE(fileExists(OutDir + "fault_out.qc"));
  EXPECT_FALSE(fileExists(OutDir + "fault_metrics.json"));
  EXPECT_FALSE(fileExists(OutDir + "fault_trace.json"));
}

TEST(FaultMatrix, StageFaultStillWritesMetrics) {
  std::string Tower = goodTowerProgram();
  std::string Metrics = ::testing::TempDir() + "fault_stage_metrics.json";
  std::remove(Metrics.c_str());
  RunResult R = runSpirec(Tower + " --entry f --emit qc -o /dev/null "
                                  "--circuit-opt cliffordt-cancel "
                                  "--metrics-json " +
                              Metrics,
                          "site=qopt/cancel-standard,kind=diag");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  std::string Json = readWholeFile(Metrics);
  EXPECT_NE(Json.find("\"succeeded\": false"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"failed_stage\": \"qopt\""), std::string::npos);
  EXPECT_NE(Json.find("fault.injected"), std::string::npos);
  std::remove(Metrics.c_str());
}

//===----------------------------------------------------------------------===//
// Governor: CLI level
//===----------------------------------------------------------------------===//

TEST(GovernorCli, DeadlineTerminatesRunawayCompileWithinTwoX) {
  std::string Length = lengthProgram();
  const int64_t TimeoutMs = 500;
  auto Start = std::chrono::steady_clock::now();
  RunResult R = runSpirec(Length +
                          " --entry length --size 1000000"
                          " --max-inline-instances 100000000"
                          " --timeout-ms " +
                          std::to_string(TimeoutMs));
  double ElapsedMs = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("resource-limit"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("wall-clock budget"), std::string::npos);
  // Within 2x of the budget, plus process startup/teardown slack.
  EXPECT_LT(ElapsedMs, 2 * TimeoutMs + 1000) << R.Output;
}

TEST(GovernorCli, DeadlineWritesMetricsWithLimitHit) {
  std::string Length = lengthProgram();
  std::string Metrics = ::testing::TempDir() + "governor_metrics.json";
  std::remove(Metrics.c_str());
  RunResult R = runSpirec(Length +
                          " --entry length --size 1000000"
                          " --max-inline-instances 100000000"
                          " --timeout-ms 200 --metrics-json " +
                          Metrics);
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  std::string Json = readWholeFile(Metrics);
  EXPECT_NE(Json.find("\"succeeded\": false"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"limit_hit\": \"deadline\""), std::string::npos)
      << Json;
  EXPECT_NE(Json.find("governor.checks"), std::string::npos) << Json;
  EXPECT_NE(Json.find("governor.limit_hits"), std::string::npos) << Json;
  std::remove(Metrics.c_str());
}

TEST(GovernorCli, AnalyzeStopsCleanlyAtADeadline) {
  // Far longer than the budget: the deadline trips during the compile or
  // the parity analysis, whose partial result must not be read.
  RunResult R = runSpirec(lengthProgram() +
                          " --entry length --size 600 --analyze"
                          " --timeout-ms 20");
  EXPECT_FALSE(R.Signalled) << R.Output;
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("wall-clock budget"), std::string::npos)
      << R.Output;
}

TEST(GovernorCli, GateCapTripsCleanly) {
  std::string Length = lengthProgram();
  RunResult R = runSpirec(Length + " --entry length --size 50"
                                   " --max-gates 1000 --emit qc"
                                   " -o /dev/null");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("gate cap"), std::string::npos) << R.Output;
}

TEST(GovernorCli, BadBudgetValuesAreUsageErrors) {
  std::string Tower = goodTowerProgram();
  EXPECT_EQ(runSpirec(Tower + " --entry f --timeout-ms 0").ExitCode, 2);
  EXPECT_EQ(runSpirec(Tower + " --entry f --timeout-ms -5").ExitCode, 2);
  EXPECT_EQ(runSpirec(Tower + " --entry f --max-alloc-mb x").ExitCode, 2);
  EXPECT_EQ(runSpirec(Tower + " --entry f --max-gates 0").ExitCode, 2);
}

TEST(GovernorCli, UnlimitedRunStillSucceeds) {
  // Budgets unset: the governor must be invisible.
  std::string Tower = goodTowerProgram();
  RunResult R = runSpirec(Tower + " --entry f --emit qc -o /dev/null");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
}

//===----------------------------------------------------------------------===//
// Adversarial-input corpus
//===----------------------------------------------------------------------===//

TEST(FuzzCorpus, EveryFileDiagnosesWithoutCrashing) {
  std::string Dir = corpusDir();
  ASSERT_FALSE(Dir.empty());
  DIR *D = opendir(Dir.c_str());
  ASSERT_NE(D, nullptr) << Dir;
  size_t Files = 0;
  while (dirent *Ent = readdir(D)) {
    std::string Name = Ent->d_name;
    bool IsQc = Name.size() > 3 && Name.rfind(".qc") == Name.size() - 3;
    bool IsQasm =
        Name.size() > 5 && Name.rfind(".qasm") == Name.size() - 5;
    if (!IsQc && !IsQasm)
      continue;
    ++Files;
    std::string Path = Dir + "/" + Name;
    RunResult R = runSpirec((IsQc ? "--qc-in " : "--qasm-in ") + Path +
                            " -o /dev/null");
    SCOPED_TRACE(Path + "\n" + R.Output);
    EXPECT_FALSE(R.Signalled);
    EXPECT_EQ(R.ExitCode, 1); // Diagnosed, not crashed, not accepted.
    EXPECT_NE(R.Output.find("error"), std::string::npos);
  }
  closedir(D);
  EXPECT_GE(Files, 10u) << "corpus went missing?";
}

TEST(FuzzCorpus, MillionDeepCtrlNestingDiagnoses) {
  // 1M `ctrl @` modifiers: the reader must process modifier chains
  // iteratively (no parser recursion to overflow) and reject the gate.
  std::string Header = "OPENQASM 3.0;\ninclude \"stdgates.inc\";\n"
                       "qubit[2] q;\n";
  std::string Body;
  Body.reserve(7u << 20);
  for (int I = 0; I != 1000000; ++I)
    Body += "ctrl @ ";
  Body += "x q[1], q[0];\n";
  std::string Path = writeTempFile("deep_ctrl_1m.qasm", Header + Body);
  RunResult R = runSpirec("--qasm-in " + Path + " -o /dev/null");
  EXPECT_FALSE(R.Signalled);
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("error"), std::string::npos) << R.Output;
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Batch mode
//===----------------------------------------------------------------------===//

TEST(Batch, PoisonedInputFailsAlone) {
  std::string Qc = goodQcCircuit();
  std::string Qasm = goodQasmCircuit();
  std::string Bad = writeTempFile("batch_poisoned.qc",
                                  ".v q0\n\nBEGIN\nfrobnicate q0\nEND\n");
  std::string List = writeTempFile("batch_list.txt",
                                   "# robustness batch\n" + Qc + "\n" +
                                       Qasm + "\n" + Bad + "\n");
  std::string Metrics = ::testing::TempDir() + "batch_metrics.json";
  std::remove(Metrics.c_str());
  RunResult R =
      runSpirec("--batch " + List + " --metrics-json " + Metrics);
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("2/3 inputs succeeded"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("FAILED"), std::string::npos);
  std::string Json = readWholeFile(Metrics);
  EXPECT_NE(Json.find("\"schema\": \"spire-batch-v1\""), std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"inputs_succeeded\": 2"), std::string::npos);
  std::remove(Metrics.c_str());
}

TEST(Batch, AllGoodInputsExitZero) {
  std::string Qc = goodQcCircuit();
  std::string List = writeTempFile("batch_good.txt", Qc + "\n" + Qc + "\n");
  RunResult R = runSpirec("--batch " + List);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("2/2 inputs succeeded"), std::string::npos);
}

TEST(Batch, ExclusiveWithSingleInputModes) {
  std::string Qc = goodQcCircuit();
  std::string List = writeTempFile("batch_excl.txt", Qc + "\n");
  EXPECT_EQ(runSpirec("--batch " + List + " " + Qc).ExitCode, 2);
  EXPECT_EQ(runSpirec("--batch " + List + " --qc-in " + Qc).ExitCode, 2);
  EXPECT_EQ(runSpirec("--batch " + List + " --emit qc").ExitCode, 2);
  EXPECT_EQ(runSpirec("--batch " + List + " -o /dev/null").ExitCode, 2);
  EXPECT_EQ(runSpirec("--batch " + List + " --report").ExitCode, 2);
}

TEST(Batch, EmptyListIsUsageError) {
  std::string List = writeTempFile("batch_empty.txt", "# nothing here\n");
  RunResult R = runSpirec("--batch " + List);
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("names no inputs"), std::string::npos);
}
