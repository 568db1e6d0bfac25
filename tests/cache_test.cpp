//===----------------------------------------------------------------------===//
// Crash-consistent artifact cache + compile service suite (PR 10):
//
//   - ArtifactCache library level: store/lookup round trips, hit/miss/
//     corrupt/evict accounting, quarantine of bit-flipped, truncated,
//     misnamed, and wrong-tool entries, LRU eviction order, stale-temp
//     sweeping, and injected cache.* io faults absorbed by retry or
//     degrading to uncached — never an error out of the cache.
//   - Key derivation: every output-affecting PipelineOptions field moves
//     the key; budget/verification knobs do not.
//   - CLI level: cold-then-warm byte-identical emits with cache.hits
//     accounting, poisoned caches recomputing (not failing), kill -9 at
//     cache.write self-healing on the next run, warm --batch runs served
//     from cache, --batch-retries absorbing transient faults, the
//     --serve loop (drain mode and FIFO) with per-request isolation, the
//     output cap holding on cold and warm caches in all three modes, and
//     one cache shared by single, serve, and batch mode.
//   - Streaming emission: an output-cap trip mid-render keeps the `-o`
//     destination's old bytes and leaks no temp; `-o /dev/null` works;
//     stdout carries the same bytes as the `-o` file.
//
// The spirec binary path arrives in the SPIREC environment variable, set
// by CTest.
//===----------------------------------------------------------------------===//

#include "driver/Service.h"
#include "support/ArtifactCache.h"
#include "support/FaultInjector.h"
#include "support/FileIO.h"

#include <gtest/gtest.h>

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

struct RunResult {
  int ExitCode = -1;
  bool Signalled = false;
  std::string Output; ///< stderr + stdout, interleaved.
};

/// Runs an arbitrary shell command, capturing stdout + stderr.
RunResult runShell(const std::string &Command) {
  FILE *Pipe = popen((Command + " 2>&1").c_str(), "r");
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

/// Runs spirec with \p Args (optionally with SPIRE_FAULT / other
/// environment assignments prefixed via \p Env).
RunResult runSpirec(const std::string &Args, const std::string &Env = "") {
  std::string Cmd = Env.empty() ? "" : Env + " ";
  Cmd += "'" + spirecPath() + "' " + Args;
  return runShell(Cmd);
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

/// Files in \p Dir whose names end with \p Suffix (non-recursive).
std::vector<std::string> filesWithSuffix(const std::string &Dir,
                                         const std::string &Suffix);

std::string goodQcCircuit() {
  return writeTempFile("cache_good.qc",
                       ".v q0 q1 q2\n\nBEGIN\ntof q0 q1 q2\ntof q0 q1\n"
                       "END\n");
}

/// A fresh cache directory under the test temp dir.
std::string freshCacheDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + Name;
  runShell("rm -rf '" + Dir + "'");
  return Dir;
}

support::CacheConfig configFor(const std::string &Dir) {
  support::CacheConfig Config;
  Config.Dir = Dir;
  Config.ToolVersion = driver::toolVersion();
  return Config;
}

/// Extracts `"Name": {..."value": N...}` from a metrics JSON dump;
/// -1 when the metric is absent.
int64_t metricValue(const std::string &Json, const std::string &Name) {
  size_t At = Json.find("\"" + Name + "\"");
  if (At == std::string::npos)
    return -1;
  size_t Value = Json.find("\"value\": ", At);
  if (Value == std::string::npos)
    return -1;
  return std::strtoll(Json.c_str() + Value + 9, nullptr, 10);
}

std::vector<std::string> filesWithSuffix(const std::string &Dir,
                                         const std::string &Suffix) {
  std::vector<std::string> Out;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Out;
  while (struct dirent *Ent = ::readdir(D)) {
    std::string Name = Ent->d_name;
    if (Name.size() >= Suffix.size() &&
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) ==
            0)
      Out.push_back(Name);
  }
  ::closedir(D);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Content hash
//===----------------------------------------------------------------------===//

TEST(HashBytes, DeterministicAndSensitive) {
  EXPECT_EQ(support::hashBytes("hello"), support::hashBytes("hello"));
  EXPECT_NE(support::hashBytes("hello"), support::hashBytes("hellp"));
  EXPECT_NE(support::hashBytes("hello"), support::hashBytes("hello "));
  EXPECT_NE(support::hashBytes(""), support::hashBytes(std::string(1, 0)));
  // Tail bytes (beyond the last full 8-byte chunk) must matter.
  EXPECT_NE(support::hashBytes("12345678A"), support::hashBytes("12345678B"));
}

//===----------------------------------------------------------------------===//
// ArtifactCache: round trips and accounting
//===----------------------------------------------------------------------===//

TEST(ArtifactCache, StoreLookupRoundTrip) {
  std::string Error;
  auto Cache =
      support::ArtifactCache::open(configFor(freshCacheDir("cache_rt")), Error);
  ASSERT_NE(Cache, nullptr) << Error;
  EXPECT_FALSE(Cache->lookup(1, 2).has_value());
  EXPECT_EQ(Cache->misses(), 1);
  EXPECT_TRUE(Cache->store(1, 2, "payload bytes\nwith lines\n"));
  std::optional<std::string> Hit = Cache->lookup(1, 2);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, "payload bytes\nwith lines\n");
  EXPECT_EQ(Cache->hits(), 1);
  EXPECT_EQ(Cache->stores(), 1);
  // A different key is a different entry.
  EXPECT_FALSE(Cache->lookup(1, 3).has_value());
}

TEST(ArtifactCache, EmptyPayloadRoundTrips) {
  std::string Error;
  auto Cache =
      support::ArtifactCache::open(configFor(freshCacheDir("cache_empty")),
                                   Error);
  ASSERT_NE(Cache, nullptr) << Error;
  // The service never stores empty artifacts, but the cache itself must
  // not confuse "empty payload" with "missing entry".
  EXPECT_TRUE(Cache->store(7, 7, ""));
  std::optional<std::string> Hit = Cache->lookup(7, 7);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_TRUE(Hit->empty());
}

//===----------------------------------------------------------------------===//
// ArtifactCache: integrity verification + quarantine
//===----------------------------------------------------------------------===//

namespace {

/// Stores one entry and returns its on-disk path.
std::string storeOne(support::ArtifactCache &Cache, uint64_t Hi,
                     uint64_t Lo, const std::string &Payload) {
  EXPECT_TRUE(Cache.store(Hi, Lo, Payload));
  return Cache.dir() + "/" + support::ArtifactCache::entryName(Hi, Lo);
}

} // namespace

TEST(ArtifactCache, BitFlippedEntryIsQuarantined) {
  std::string Error;
  auto Cache = support::ArtifactCache::open(
      configFor(freshCacheDir("cache_flip")), Error);
  ASSERT_NE(Cache, nullptr) << Error;
  std::string Path = storeOne(*Cache, 3, 4, "sensitive artifact bytes");
  std::string Raw = readWholeFile(Path);
  Raw[Raw.size() / 2] ^= 0x20;
  { std::ofstream Out(Path, std::ios::binary); Out << Raw; }

  EXPECT_FALSE(Cache->lookup(3, 4).has_value());
  EXPECT_EQ(Cache->corrupt(), 1);
  EXPECT_FALSE(fileExists(Path)) << "damaged entry must leave the cache";
  EXPECT_EQ(filesWithSuffix(Cache->dir() + "/quarantine", ".art").size(),
            1u);
  // The damage is consumed: the next lookup is a plain miss.
  EXPECT_FALSE(Cache->lookup(3, 4).has_value());
  EXPECT_EQ(Cache->corrupt(), 1);
}

TEST(ArtifactCache, TruncatedEntryIsQuarantined) {
  std::string Error;
  auto Cache = support::ArtifactCache::open(
      configFor(freshCacheDir("cache_trunc")), Error);
  ASSERT_NE(Cache, nullptr) << Error;
  std::string Path = storeOne(*Cache, 5, 6, "a payload long enough to cut");
  std::string Raw = readWholeFile(Path);
  { std::ofstream Out(Path, std::ios::binary);
    Out << Raw.substr(0, Raw.size() - 7); }
  EXPECT_FALSE(Cache->lookup(5, 6).has_value());
  EXPECT_EQ(Cache->corrupt(), 1);
}

TEST(ArtifactCache, GarbageHeaderIsQuarantined) {
  std::string Error;
  auto Cache = support::ArtifactCache::open(
      configFor(freshCacheDir("cache_garbage")), Error);
  ASSERT_NE(Cache, nullptr) << Error;
  std::string Path =
      Cache->dir() + "/" + support::ArtifactCache::entryName(8, 9);
  { std::ofstream Out(Path, std::ios::binary); Out << "not a manifest\n"; }
  EXPECT_FALSE(Cache->lookup(8, 9).has_value());
  EXPECT_EQ(Cache->corrupt(), 1);
}

TEST(ArtifactCache, MisnamedEntryIsQuarantined) {
  std::string Error;
  auto Cache = support::ArtifactCache::open(
      configFor(freshCacheDir("cache_misname")), Error);
  ASSERT_NE(Cache, nullptr) << Error;
  std::string Path = storeOne(*Cache, 10, 11, "payload");
  // A valid entry under the wrong name must not be served for that key.
  std::string Wrong =
      Cache->dir() + "/" + support::ArtifactCache::entryName(12, 13);
  ASSERT_EQ(std::rename(Path.c_str(), Wrong.c_str()), 0);
  EXPECT_FALSE(Cache->lookup(12, 13).has_value());
  EXPECT_EQ(Cache->corrupt(), 1);
}

TEST(ArtifactCache, WrongToolVersionReadsAsMiss) {
  std::string Dir = freshCacheDir("cache_tool");
  std::string Error;
  {
    support::CacheConfig Config = configFor(Dir);
    Config.ToolVersion = "spirec-elder";
    auto Cache = support::ArtifactCache::open(Config, Error);
    ASSERT_NE(Cache, nullptr) << Error;
    EXPECT_TRUE(Cache->store(14, 15, "an elder artifact"));
  }
  auto Cache = support::ArtifactCache::open(configFor(Dir), Error);
  ASSERT_NE(Cache, nullptr) << Error;
  EXPECT_FALSE(Cache->lookup(14, 15).has_value());
  EXPECT_EQ(Cache->corrupt(), 1);
}

//===----------------------------------------------------------------------===//
// ArtifactCache: LRU eviction
//===----------------------------------------------------------------------===//

TEST(ArtifactCache, EvictsOldestUsedFirst) {
  support::CacheConfig Config = configFor(freshCacheDir("cache_lru"));
  // Entries are ~64 bytes of payload + ~100 of manifest; cap at three.
  Config.MaxBytes = 3 * 200;
  std::string Error;
  auto Cache = support::ArtifactCache::open(Config, Error);
  ASSERT_NE(Cache, nullptr) << Error;
  std::string Payload(64, 'x');
  auto tick = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  storeOne(*Cache, 1, 1, Payload);
  tick();
  storeOne(*Cache, 2, 2, Payload);
  tick();
  storeOne(*Cache, 3, 3, Payload);
  tick();
  // Touch entry 1: it becomes the most recently used.
  EXPECT_TRUE(Cache->lookup(1, 1).has_value());
  tick();
  storeOne(*Cache, 4, 4, Payload); // Over cap: evicts 2 (oldest-used).
  EXPECT_GE(Cache->evicted(), 1);
  EXPECT_TRUE(Cache->lookup(1, 1).has_value()) << "recently-used survives";
  EXPECT_FALSE(Cache->lookup(2, 2).has_value()) << "oldest-used evicted";
  EXPECT_TRUE(Cache->lookup(4, 4).has_value()) << "just-stored survives";
}

//===----------------------------------------------------------------------===//
// Stale-temp sweeping
//===----------------------------------------------------------------------===//

TEST(StaleTempSweep, RemovesDeadPidTempsOnly) {
  std::string Dir = freshCacheDir("cache_sweep");
  ASSERT_EQ(::mkdir(Dir.c_str(), 0755), 0);
  // A guaranteed-dead pid: fork a child that exits immediately and reap
  // it. The pid is ours to name until another process recycles it.
  pid_t Dead = fork();
  ASSERT_GE(Dead, 0);
  if (Dead == 0)
    _exit(0);
  ASSERT_EQ(waitpid(Dead, nullptr, 0), Dead);

  std::string DeadTemp =
      Dir + "/entry.art.tmp." + std::to_string(Dead);
  std::string LiveTemp =
      Dir + "/entry.art.tmp." + std::to_string(getpid());
  std::string NotATemp = Dir + "/entry.art";
  std::string Garbage = Dir + "/entry.art.tmp.notapid";
  for (const std::string &P : {DeadTemp, LiveTemp, NotATemp, Garbage})
    std::ofstream(P, std::ios::binary) << "x";

  EXPECT_EQ(support::sweepStaleTempFiles(Dir), 1);
  EXPECT_FALSE(fileExists(DeadTemp)) << "dead writer's temp reaped";
  EXPECT_TRUE(fileExists(LiveTemp)) << "own in-flight temp kept";
  EXPECT_TRUE(fileExists(NotATemp)) << "real entries kept";
  EXPECT_TRUE(fileExists(Garbage)) << "non-pid suffixes kept";
}

TEST(StaleTempSweep, CacheOpenSweeps) {
  std::string Dir = freshCacheDir("cache_sweep_open");
  ASSERT_EQ(::mkdir(Dir.c_str(), 0755), 0);
  pid_t Dead = fork();
  ASSERT_GE(Dead, 0);
  if (Dead == 0)
    _exit(0);
  ASSERT_EQ(waitpid(Dead, nullptr, 0), Dead);
  std::string DeadTemp = Dir + "/e.art.tmp." + std::to_string(Dead);
  std::ofstream(DeadTemp, std::ios::binary) << "orphan";

  std::string Error;
  auto Cache = support::ArtifactCache::open(configFor(Dir), Error);
  ASSERT_NE(Cache, nullptr) << Error;
  EXPECT_FALSE(fileExists(DeadTemp)) << "open() must sweep orphans";
}

//===----------------------------------------------------------------------===//
// ArtifactCache: injected io faults
//===----------------------------------------------------------------------===//

TEST(CacheFaults, ReadFaultAbsorbedByRetry) {
  std::string Error;
  auto Cache = support::ArtifactCache::open(
      configFor(freshCacheDir("cache_retry")), Error);
  ASSERT_NE(Cache, nullptr) << Error;
  storeOne(*Cache, 20, 21, "resilient payload");
  support::armFault({"cache.read", support::FaultKind::Io, 0});
  std::optional<std::string> Hit = Cache->lookup(20, 21);
  support::disarmFault();
  ASSERT_TRUE(Hit.has_value()) << "one-shot fault must be retried away";
  EXPECT_EQ(*Hit, "resilient payload");
}

TEST(CacheFaults, WriteFaultAbsorbedByRetry) {
  std::string Error;
  auto Cache = support::ArtifactCache::open(
      configFor(freshCacheDir("cache_wretry")), Error);
  ASSERT_NE(Cache, nullptr) << Error;
  support::armFault({"cache.write", support::FaultKind::Io, 0});
  EXPECT_TRUE(Cache->store(22, 23, "stored despite the fault"));
  support::disarmFault();
  EXPECT_TRUE(Cache->lookup(22, 23).has_value());
}

TEST(CacheFaults, ExhaustedRetriesDegradeToMiss) {
  support::CacheConfig Config = configFor(freshCacheDir("cache_degrade"));
  Config.RetryAttempts = 0;
  std::string Error;
  auto Cache = support::ArtifactCache::open(Config, Error);
  ASSERT_NE(Cache, nullptr) << Error;
  storeOne(*Cache, 24, 25, "unreachable this once");
  support::armFault({"cache.read", support::FaultKind::Io, 0});
  EXPECT_FALSE(Cache->lookup(24, 25).has_value())
      << "no retries: the fault degrades the lookup to a miss";
  support::disarmFault();
  // The entry itself is intact; the next lookup hits.
  EXPECT_TRUE(Cache->lookup(24, 25).has_value());
}

//===----------------------------------------------------------------------===//
// Cache key derivation
//===----------------------------------------------------------------------===//

TEST(CacheKey, TracksOutputAffectingOptionsOnly) {
  driver::PipelineOptions Base;
  Base.Entry = "f";
  const std::string Source = "fun f() { return 1; }";
  driver::CacheKey K0 = driver::cacheKeyFor(Base, Source);

  // Source bytes move the low word.
  EXPECT_NE(driver::cacheKeyFor(Base, Source + " ").Lo, K0.Lo);
  EXPECT_EQ(driver::cacheKeyFor(Base, Source).Hi, K0.Hi);

  // Output-affecting options move the high word.
  driver::PipelineOptions O = Base;
  O.Entry = "g";
  EXPECT_NE(driver::cacheKeyFor(O, Source).Hi, K0.Hi);
  O = Base;
  O.Size = 3;
  EXPECT_NE(driver::cacheKeyFor(O, Source).Hi, K0.Hi);
  O = Base;
  O.Target.WordBits = 16;
  EXPECT_NE(driver::cacheKeyFor(O, Source).Hi, K0.Hi);
  O = Base;
  O.CircuitOpt = driver::CircuitOptimizerKind::Peephole;
  EXPECT_NE(driver::cacheKeyFor(O, Source).Hi, K0.Hi);
  O = Base;
  O.Basis = interchange::Basis::CX;
  EXPECT_NE(driver::cacheKeyFor(O, Source).Hi, K0.Hi);

  // Budgets and verification police the run; the artifact is the same.
  O = Base;
  O.Limits.TimeoutMs = 1000;
  O.VerifyEach = !O.VerifyEach;
  EXPECT_EQ(driver::cacheKeyFor(O, Source).Hi, K0.Hi);
}

//===----------------------------------------------------------------------===//
// CLI: cold/warm runs, poisoning, crash self-healing
//===----------------------------------------------------------------------===//

TEST(CacheCli, ColdThenWarmIsByteIdenticalAndCounted) {
  ASSERT_FALSE(spirecPath().empty()) << "SPIREC env var not set";
  std::string Qc = goodQcCircuit();
  std::string Dir = freshCacheDir("cli_warm");
  std::string Out = ::testing::TempDir();

  RunResult Ref = runSpirec("--qc-in " + Qc + " -o " + Out + "ref.qc");
  ASSERT_EQ(Ref.ExitCode, 0) << Ref.Output;
  RunResult Cold = runSpirec("--qc-in " + Qc + " -o " + Out +
                             "cold.qc --cache-dir " + Dir);
  ASSERT_EQ(Cold.ExitCode, 0) << Cold.Output;
  RunResult Warm = runSpirec("--qc-in " + Qc + " -o " + Out +
                             "warm.qc --cache-dir " + Dir +
                             " --metrics-json " + Out + "warm.json");
  ASSERT_EQ(Warm.ExitCode, 0) << Warm.Output;

  std::string Expect = readWholeFile(Out + "ref.qc");
  ASSERT_FALSE(Expect.empty());
  EXPECT_EQ(readWholeFile(Out + "cold.qc"), Expect);
  EXPECT_EQ(readWholeFile(Out + "warm.qc"), Expect);
  std::string Json = readWholeFile(Out + "warm.json");
  EXPECT_EQ(metricValue(Json, "cache.hits"), 1) << Json;
  EXPECT_EQ(filesWithSuffix(Dir, ".art").size(), 1u);
}

TEST(CacheCli, PoisonedEntryRecomputesNotFails) {
  ASSERT_FALSE(spirecPath().empty());
  std::string Qc = goodQcCircuit();
  std::string Dir = freshCacheDir("cli_poison");
  std::string Out = ::testing::TempDir();
  ASSERT_EQ(runSpirec("--qc-in " + Qc + " -o " + Out +
                      "p_ref.qc --cache-dir " + Dir)
                .ExitCode,
            0);
  std::vector<std::string> Entries = filesWithSuffix(Dir, ".art");
  ASSERT_EQ(Entries.size(), 1u);
  std::string Entry = Dir + "/" + Entries[0];
  std::string Raw = readWholeFile(Entry);
  Raw[Raw.size() - 3] ^= 0xff;
  { std::ofstream O(Entry, std::ios::binary); O << Raw; }

  RunResult R = runSpirec("--qc-in " + Qc + " -o " + Out +
                          "p_out.qc --cache-dir " + Dir +
                          " --metrics-json " + Out + "p.json");
  EXPECT_EQ(R.ExitCode, 0) << "cache damage must never fail a compile: "
                           << R.Output;
  EXPECT_EQ(readWholeFile(Out + "p_out.qc"), readWholeFile(Out + "p_ref.qc"));
  std::string Json = readWholeFile(Out + "p.json");
  EXPECT_GE(metricValue(Json, "cache.corrupt"), 1) << Json;
  EXPECT_GE(filesWithSuffix(Dir + "/quarantine", ".art").size(), 1u);
}

TEST(CacheCli, KillAtCacheWriteSelfHeals) {
  ASSERT_FALSE(spirecPath().empty());
  std::string Qc = goodQcCircuit();
  std::string Dir = freshCacheDir("cli_kill");
  std::string Out = ::testing::TempDir();
  ASSERT_EQ(runSpirec("--qc-in " + Qc + " -o " + Out + "k_ref.qc")
                .ExitCode,
            0);

  RunResult Killed = runSpirec("--qc-in " + Qc + " -o /dev/null --cache-dir " +
                                   Dir,
                               "SPIRE_FAULT='site=cache.write,kind=kill'");
  EXPECT_EQ(Killed.ExitCode, 137) << "the kill fault must fire: "
                                  << Killed.Output;
  // The abrupt death left no committed entry — only (possibly) an
  // orphaned temp, which the next run's startup sweep reaps.
  EXPECT_TRUE(filesWithSuffix(Dir, ".art").empty());

  RunResult Heal = runSpirec("--qc-in " + Qc + " -o " + Out +
                             "k_out.qc --cache-dir " + Dir);
  EXPECT_EQ(Heal.ExitCode, 0) << Heal.Output;
  EXPECT_EQ(readWholeFile(Out + "k_out.qc"), readWholeFile(Out + "k_ref.qc"));
  EXPECT_TRUE(filesWithSuffix(Dir, ".tmp").empty());
  for (const std::string &Name : filesWithSuffix(Dir, ""))
    EXPECT_EQ(Name.find(".tmp."), std::string::npos)
        << "stale temp survived the sweep: " << Name;
}

TEST(CacheCli, DegradesToUncachedWhenRetriesExhausted) {
  ASSERT_FALSE(spirecPath().empty());
  std::string Qc = goodQcCircuit();
  std::string Dir = freshCacheDir("cli_degrade");
  std::string Out = ::testing::TempDir();
  ASSERT_EQ(runSpirec("--qc-in " + Qc + " -o " + Out +
                      "d_ref.qc --cache-dir " + Dir)
                .ExitCode,
            0);
  RunResult R = runSpirec(
      "--qc-in " + Qc + " -o " + Out + "d_out.qc --cache-dir " + Dir +
          " --metrics-json " + Out + "d.json",
      "SPIRE_CACHE_RETRIES=0 SPIRE_FAULT='site=cache.read,kind=io'");
  EXPECT_EQ(R.ExitCode, 0) << "a sick cache degrades, never fails: "
                           << R.Output;
  EXPECT_EQ(readWholeFile(Out + "d_out.qc"), readWholeFile(Out + "d_ref.qc"));
  EXPECT_GE(metricValue(readWholeFile(Out + "d.json"), "cache.io_errors"),
            1);
}

//===----------------------------------------------------------------------===//
// CLI: batch cache + retries
//===----------------------------------------------------------------------===//

TEST(CacheBatch, WarmBatchServedFromCache) {
  ASSERT_FALSE(spirecPath().empty());
  std::string Qc = goodQcCircuit();
  std::string Qc2 = writeTempFile("cache_good2.qc",
                                  ".v a b\n\nBEGIN\ntof a b\nEND\n");
  std::string List = writeTempFile("cache_batch.txt", Qc + "\n" + Qc2 + "\n");
  std::string Dir = freshCacheDir("cli_batch");
  std::string Out = ::testing::TempDir();

  RunResult Cold = runSpirec("--batch " + List + " --cache-dir " + Dir);
  ASSERT_EQ(Cold.ExitCode, 0) << Cold.Output;
  RunResult Warm = runSpirec("--batch " + List + " --cache-dir " + Dir +
                             " --metrics-json " + Out + "bw.json");
  ASSERT_EQ(Warm.ExitCode, 0) << Warm.Output;
  EXPECT_NE(Warm.Output.find("(cached, "), std::string::npos) << Warm.Output;
  std::string Json = readWholeFile(Out + "bw.json");
  EXPECT_EQ(metricValue(Json, "cache.hits"), 2) << Json;
  EXPECT_NE(Json.find("\"cached\": true"), std::string::npos);
}

TEST(CacheBatch, RetriesAbsorbTransientIoFault) {
  ASSERT_FALSE(spirecPath().empty());
  std::string Qc = goodQcCircuit();
  std::string List = writeTempFile("cache_retry_batch.txt", Qc + "\n");
  std::string Out = ::testing::TempDir();
  // after=1: the first io/input arrival reads the batch list itself;
  // the fault then fires on the entry's read and the retry absorbs it.
  RunResult R = runSpirec("--batch " + List + " --batch-retries 2 " +
                              "--metrics-json " + Out + "br.json",
                          "SPIRE_FAULT='site=io/input,kind=io,after=1'");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("2 attempts"), std::string::npos) << R.Output;
  std::string Json = readWholeFile(Out + "br.json");
  EXPECT_NE(Json.find("\"attempts\": 2"), std::string::npos) << Json;

  // Without retries the same fault fails the entry (isolated, exit 1).
  RunResult NoRetry = runSpirec("--batch " + List,
                                "SPIRE_FAULT='site=io/input,kind=io,after=1'");
  EXPECT_EQ(NoRetry.ExitCode, 1) << NoRetry.Output;
}

//===----------------------------------------------------------------------===//
// CLI: serve loop
//===----------------------------------------------------------------------===//

TEST(Serve, DrainsRegularFileWithIsolation) {
  ASSERT_FALSE(spirecPath().empty());
  std::string Qc = goodQcCircuit();
  std::string Out = ::testing::TempDir();
  std::string Dir = freshCacheDir("serve_drain");
  // A poisoned request first: its failure must not leak into the next.
  std::string Reqs = writeTempFile(
      "serve_reqs.txt", "# serve drain test\n"
                        "compile " +
                            (Out + "serve_missing.qc") + " " + Out +
                            "s0.qc\n"
                            "compile " +
                            Qc + " " + Out + "s1.qc\n" + "compile " + Qc +
                            " " + Out + "s2.qc\n" + "shutdown\n");
  RunResult R = runSpirec("--serve " + Reqs + " --cache-dir " + Dir +
                          " --metrics-json " + Out + "serve.json");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("FAILED"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("serve: ok"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("2/3 requests succeeded"), std::string::npos)
      << R.Output;
  // Request 2 compiled (miss), request 3 hit the fresh entry.
  EXPECT_NE(R.Output.find("(miss, "), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("(hit, "), std::string::npos) << R.Output;
  EXPECT_EQ(readWholeFile(Out + "s1.qc"), readWholeFile(Out + "s2.qc"));
  EXPECT_FALSE(readWholeFile(Out + "s1.qc").empty());
  std::string Json = readWholeFile(Out + "serve.json");
  EXPECT_NE(Json.find("\"mode\": \"serve\""), std::string::npos) << Json;
  EXPECT_EQ(metricValue(Json, "service.requests"), 2) << Json;
}

TEST(Serve, FifoServesAcrossWriterSessions) {
  ASSERT_FALSE(spirecPath().empty());
  std::string Qc = goodQcCircuit();
  std::string Out = ::testing::TempDir();
  std::string Fifo = Out + "serve_req.fifo";
  // One shell script: start the server on a FIFO, feed it two separate
  // writer sessions (the server must survive the hang-up between them),
  // then shut it down and report its exit code.
  std::string Script = "rm -f '" + Fifo + "'; mkfifo '" + Fifo +
                       "' || exit 1; '" + spirecPath() + "' --serve '" +
                       Fifo + "' > '" + Out + "serve_fifo.out' & pid=$!; " +
                       "echo 'compile " + Qc + " " + Out +
                       "f1.qc' > '" + Fifo + "'; " + "{ echo 'compile " +
                       Qc + " " + Out + "f2.qc'; echo shutdown; } > '" +
                       Fifo + "'; wait $pid";
  RunResult R = runShell(Script);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  std::string ServerOut = readWholeFile(Out + "serve_fifo.out");
  EXPECT_NE(ServerOut.find("2/2 requests succeeded"), std::string::npos)
      << ServerOut;
  EXPECT_EQ(readWholeFile(Out + "f1.qc"), readWholeFile(Out + "f2.qc"));
  EXPECT_FALSE(readWholeFile(Out + "f1.qc").empty());
}

//===----------------------------------------------------------------------===//
// CLI: one request path across single, batch, and serve mode
//===----------------------------------------------------------------------===//

namespace {

/// The paper's Fig. 1 `length` program; its .qc artifact grows with
/// --size (about 2 MB at size 40).
std::string lengthProgram() {
  return writeTempFile("modes_length.tower", R"(
type list = (uint, ptr<list>);
fun length[n](xs: ptr<list>, acc: uint) {
  with {
    let is_empty <- xs == null;
  } do if is_empty {
    let out <- acc;
  } else with {
    let temp <- default<list>;
    *xs <-> temp;
    let next <- temp.2;
    let r <- acc + 1;
  } do {
    let out <- length[n-1](next, r);
  }
  return out;
}
)");
}

} // namespace

TEST(CacheModes, OutputCapHoldsOnColdAndWarmCacheInEveryMode) {
  ASSERT_FALSE(spirecPath().empty());
  // contains.qc renders to ~1.26 MB, over a 1 MiB cap.
  const std::string Golden = std::string(SPIRE_GOLDEN_DIR) + "/contains.qc";
  std::string Out = ::testing::TempDir();
  std::string List = writeTempFile("cap_batch.txt", Golden + "\n");
  std::string Reqs = writeTempFile(
      "cap_serve.txt",
      "compile " + Golden + " " + Out + "cap_serve.qc\nshutdown\n");
  for (bool Warm : {false, true}) {
    SCOPED_TRACE(Warm ? "warm cache" : "cold cache");
    std::string Dir = freshCacheDir(Warm ? "cap_warm" : "cap_cold");
    if (Warm) {
      // Filled by an uncapped run, so every capped run below is a hit.
      ASSERT_EQ(runSpirec("--qc-in " + Golden + " -o " + Out +
                          "cap_fill.qc --cache-dir " + Dir)
                    .ExitCode,
                0);
      ASSERT_EQ(filesWithSuffix(Dir, ".art").size(), 1u);
    }
    std::string Cap = " --cache-dir " + Dir + " --max-output-mb 1";

    std::remove((Out + "cap_single.qc").c_str());
    RunResult Single =
        runSpirec("--qc-in " + Golden + " -o " + Out + "cap_single.qc" + Cap);
    EXPECT_EQ(Single.ExitCode, 2) << Single.Output;
    EXPECT_NE(Single.Output.find("resource-limit: output cap"),
              std::string::npos)
        << Single.Output;
    EXPECT_FALSE(fileExists(Out + "cap_single.qc"));

    RunResult Batch = runSpirec("--batch " + List + Cap + " --metrics-json " +
                                Out + "cap_batch.json");
    EXPECT_EQ(Batch.ExitCode, 1) << Batch.Output;
    EXPECT_NE(Batch.Output.find("batch: FAILED"), std::string::npos)
        << Batch.Output;
    std::string Json = readWholeFile(Out + "cap_batch.json");
    EXPECT_NE(Json.find("\"limit_hit\": \"output-bytes\""), std::string::npos)
        << Json;
    if (Warm) {
      EXPECT_EQ(metricValue(Json, "cache.hits"), 1) << Json;
    }

    std::remove((Out + "cap_serve.qc").c_str());
    RunResult Serve = runSpirec("--serve " + Reqs + Cap);
    EXPECT_EQ(Serve.ExitCode, 0) << Serve.Output;
    EXPECT_NE(Serve.Output.find("serve: FAILED"), std::string::npos)
        << Serve.Output;
    EXPECT_FALSE(fileExists(Out + "cap_serve.qc"));

    // A capped miss must not leave the over-cap artifact in the cache.
    EXPECT_EQ(filesWithSuffix(Dir, ".art").size(), Warm ? 1u : 0u);
  }
}

TEST(CacheModes, SingleModeEntriesServeAndBatchHits) {
  ASSERT_FALSE(spirecPath().empty());
  std::string Out = ::testing::TempDir();
  std::string Tower = lengthProgram();
  std::string Qc = goodQcCircuit();
  struct Input {
    const char *Name;
    std::string Single;     ///< single-mode input arguments
    std::string Path;       ///< input path for serve and batch
    std::string ServeEntry; ///< `[entry [size]]` of the serve request
    std::string BatchFlags; ///< shared flags for the batch run
  };
  const Input Inputs[] = {
      {"tower", Tower + " --entry length --size 4 --emit qc", Tower,
       " length 4", " --entry length --size 4"},
      {"qc", "--qc-in " + Qc, Qc, "", ""},
  };
  for (const Input &In : Inputs) {
    SCOPED_TRACE(In.Name);
    std::string Dir = freshCacheDir(std::string("modes_") + In.Name);
    std::string A = Out + "modes_" + In.Name + "_a.qc";
    std::string B = Out + "modes_" + In.Name + "_b.qc";
    std::remove(B.c_str());

    RunResult Single =
        runSpirec(In.Single + " --cache-dir " + Dir + " -o " + A);
    ASSERT_EQ(Single.ExitCode, 0) << Single.Output;
    ASSERT_EQ(filesWithSuffix(Dir, ".art").size(), 1u);

    std::string Reqs = writeTempFile(
        std::string("modes_") + In.Name + "_serve.txt",
        "compile " + In.Path + " " + B + In.ServeEntry + "\nshutdown\n");
    RunResult Serve = runSpirec("--serve " + Reqs + " --cache-dir " + Dir);
    EXPECT_EQ(Serve.ExitCode, 0) << Serve.Output;
    EXPECT_NE(Serve.Output.find("(hit, "), std::string::npos)
        << Serve.Output;
    std::string Expect = readWholeFile(A);
    ASSERT_FALSE(Expect.empty());
    EXPECT_EQ(readWholeFile(B), Expect);

    std::string List = writeTempFile(
        std::string("modes_") + In.Name + "_batch.txt", In.Path + "\n");
    RunResult Batch =
        runSpirec("--batch " + List + In.BatchFlags + " --cache-dir " + Dir);
    EXPECT_EQ(Batch.ExitCode, 0) << Batch.Output;
    EXPECT_NE(Batch.Output.find("(cached, "), std::string::npos)
        << Batch.Output;
    EXPECT_EQ(filesWithSuffix(Dir, ".art").size(), 1u);
  }
}

TEST(CacheModes, OutputCapChargesOnlyEmittedArtifacts) {
  ASSERT_FALSE(spirecPath().empty());
  std::string Length = lengthProgram() + " --entry length --size 40";
  // --analyze builds the circuit but emits nothing: no render, no charge.
  RunResult Analyze = runSpirec(Length + " --analyze --max-output-mb 1");
  EXPECT_EQ(Analyze.ExitCode, 0) << Analyze.Output;
  // With --emit the same run is charged, and stops cleanly at the trip
  // instead of running the lint under the tripped governor.
  RunResult Emit = runSpirec(Length + " --analyze --emit qc -o /dev/null "
                                      "--max-output-mb 1");
  EXPECT_EQ(Emit.ExitCode, 2) << Emit.Output;
  EXPECT_NE(Emit.Output.find("resource-limit: output cap"), std::string::npos)
      << Emit.Output;
}

//===----------------------------------------------------------------------===//
// Streaming emission: `-o` is a staged file written as the circuit renders
//===----------------------------------------------------------------------===//

TEST(StreamingEmit, OutputCapTripKeepsDestinationAndLeavesNoTemp) {
  ASSERT_FALSE(spirecPath().empty());
  // contains.qc renders to ~1.26 MB, over a 1 MiB cap: the staged temp
  // has taken bytes when the cap trips mid-render.
  const std::string Golden = std::string(SPIRE_GOLDEN_DIR) + "/contains.qc";
  std::string Dir = freshCacheDir("stream_cap");
  ASSERT_EQ(::mkdir(Dir.c_str(), 0755), 0);
  std::string Dest = Dir + "/out.qc";
  {
    std::ofstream Out(Dest, std::ios::binary);
    Out << "previous artifact\n";
  }
  std::string Metrics = ::testing::TempDir() + "stream_cap.json";
  RunResult R = runSpirec("--qc-in " + Golden + " --emit qc -o " + Dest +
                          " --max-output-mb 1 --metrics-json " + Metrics);
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(readWholeFile(Metrics).find("\"limit_hit\": \"output-bytes\""),
            std::string::npos);
  EXPECT_EQ(readWholeFile(Dest), "previous artifact\n");
  std::vector<std::string> Left;
  DIR *D = ::opendir(Dir.c_str());
  ASSERT_NE(D, nullptr);
  while (struct dirent *Ent = ::readdir(D))
    if (std::string(Ent->d_name).find(".tmp.") != std::string::npos)
      Left.push_back(Ent->d_name);
  ::closedir(D);
  EXPECT_TRUE(Left.empty()) << "leaked temp " << Left.front();
}

TEST(StreamingEmit, DevNullAndStdoutMatchTheFile) {
  ASSERT_FALSE(spirecPath().empty());
  const std::string Golden = std::string(SPIRE_GOLDEN_DIR) + "/contains.qc";
  const std::string Inputs[] = {
      lengthProgram() + " --entry length --size 4",
      "--qc-in " + Golden,
  };
  for (const std::string &In : Inputs) {
    for (const char *Format : {"qc", "qasm3"}) {
      SCOPED_TRACE(In + " --emit " + Format);
      std::string Args = In + " --emit " + Format;
      EXPECT_EQ(runSpirec(Args + " -o /dev/null").ExitCode, 0);
      std::string File = ::testing::TempDir() + "stream_file.out";
      std::string Piped = ::testing::TempDir() + "stream_stdout.out";
      ASSERT_EQ(runSpirec(Args + " -o " + File).ExitCode, 0);
      // The subshell keeps stderr (the circuit-in stats line) out of
      // the redirected stdout.
      ASSERT_EQ(
          runShell("('" + spirecPath() + "' " + Args + " > " + Piped + ")")
              .ExitCode,
          0);
      std::string Expect = readWholeFile(File);
      EXPECT_FALSE(Expect.empty());
      // Not EXPECT_EQ: a failure would diff two megabyte strings.
      EXPECT_TRUE(readWholeFile(Piped) == Expect);
    }
  }
}
