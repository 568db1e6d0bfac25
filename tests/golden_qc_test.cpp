//===----------------------------------------------------------------------===//
// Differential guard for the interned-symbol middle end: every paper
// benchmark, compiled source -> .qc through the full default pipeline,
// must emit byte-identical text to the golden files captured from the
// seed (pre-Symbol, string-keyed) pipeline. A diff here means the
// refactored middle end changed observable behavior — register
// allocation order, name generation, or gate emission — rather than just
// its internal representation.
//
// Regenerating (only when an *intentional* output change lands):
//   SPIRE_REGEN_GOLDENS=1 ./tests/golden_qc_test
// rewrites tests/golden/*.qc in the source tree; commit the diff with an
// explanation of why the output legitimately changed.
//===----------------------------------------------------------------------===//

#include "benchmarks/Harness.h"
#include "driver/Pipeline.h"
#include "support/ArtifactCache.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

using namespace spire;

#ifndef SPIRE_GOLDEN_DIR
#error "SPIRE_GOLDEN_DIR must be defined by the build"
#endif

namespace {

/// Golden capture size: deep enough that recursion inlining, with-block
/// reservations, and re-declaration aliasing all fire, small enough that
/// the files stay reviewable.
int64_t goldenSize(const benchmarks::BenchmarkProgram &B) {
  if (!B.SizeIndexed)
    return 0;
  // The radix-tree Set benchmarks grow gate counts fastest; capture them
  // one level shallower to keep the committed goldens reviewable.
  return B.Group == "Set" ? 2 : 3;
}

std::string compileTo(const benchmarks::BenchmarkProgram &B,
                      interchange::Format Format) {
  driver::PipelineOptions Opts;
  Opts.BuildCircuit = true;
  Opts.AnalyzeCost = false;
  Opts.OutputFormat = Format;
  driver::CompilationResult R =
      benchmarks::runPipelineOrDie(B, goldenSize(B), Opts);
  driver::CompilationPipeline Pipeline(std::move(Opts));
  return Pipeline.renderFinalCircuit(R);
}

std::string goldenPath(const benchmarks::BenchmarkProgram &B) {
  return std::string(SPIRE_GOLDEN_DIR) + "/" + B.Name + ".qc";
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

} // namespace

TEST(GoldenQc, BenchmarksEmitSeedIdenticalQc) {
  bool Regen = std::getenv("SPIRE_REGEN_GOLDENS") != nullptr;
  for (const benchmarks::BenchmarkProgram &B : benchmarks::allBenchmarks()) {
    std::string Text = compileTo(B, interchange::Format::Qc);
    ASSERT_FALSE(Text.empty()) << B.Name;
    std::string Path = goldenPath(B);
    if (Regen) {
      std::ofstream Out(Path);
      ASSERT_TRUE(Out.good()) << "cannot write " << Path;
      Out << Text;
      continue;
    }
    std::string Expected = readFile(Path);
    ASSERT_FALSE(Expected.empty())
        << "missing golden " << Path
        << " (run with SPIRE_REGEN_GOLDENS=1 to capture)";
    EXPECT_EQ(Text, Expected)
        << B.Name << ": .qc output diverged from the seed pipeline";
  }
}

// The QASM3 leg: byte length and support::hashBytes of each benchmark's
// OpenQASM 3 text at the golden size, recorded from the string-building
// writer that preceded the streaming one. A mismatch means the QASM3
// emitter's bytes changed.
TEST(GoldenQc, BenchmarksEmitSeedIdenticalQasm3) {
  struct Digest {
    const char *Name;
    size_t Bytes;
    uint64_t Hash;
  };
  static const Digest Expected[] = {
      {"length", 222127, 0xe833b339a8d8e15cull},
      {"sum", 224743, 0xb180679ab9a7e40aull},
      {"find_pos", 228757, 0xa039c22baa8c40e5ull},
      {"remove", 266429, 0xe512c1b9a135d534ull},
      {"push_back", 393421, 0x463afe176352f64cull},
      {"pop_front", 31278, 0x1d16895bbfa96525ull},
      {"is_prefix", 421440, 0x0129d0572fcfb99dull},
      {"num_matching", 434540, 0x2245f41ad3536c20ull},
      {"compare", 422076, 0xd71bb7ea9d6e4cecull},
      {"insert", 1265929, 0xcc62883937f6a2e1ull},
      {"contains", 1961309, 0xe1f6031084ae149full},
  };
  const auto &All = benchmarks::allBenchmarks();
  ASSERT_EQ(All.size(), std::size(Expected));
  for (const Digest &D : Expected) {
    SCOPED_TRACE(D.Name);
    auto It = std::find_if(All.begin(), All.end(),
                           [&](const auto &B) { return B.Name == D.Name; });
    ASSERT_NE(It, All.end());
    std::string Text = compileTo(*It, interchange::Format::Qasm3);
    EXPECT_EQ(Text.size(), D.Bytes);
    EXPECT_EQ(support::hashBytes(Text), D.Hash)
        << ".qasm3 output diverged from the recorded digest";
  }
}
