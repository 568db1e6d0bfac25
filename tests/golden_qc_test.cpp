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
#include <optional>
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
                      interchange::Format Format,
                      std::optional<interchange::Basis> Basis = {}) {
  driver::PipelineOptions Opts;
  Opts.BuildCircuit = true;
  Opts.AnalyzeCost = false;
  Opts.OutputFormat = Format;
  Opts.Basis = Basis;
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

/// Names the first line where two texts differ, for a mismatch message
/// that stays linear in the text size (gtest's line diff of two
/// megabyte strings is quadratic).
std::string firstDifference(const std::string &Got,
                            const std::string &Want) {
  auto Mismatch = std::mismatch(Got.begin(), Got.end(), Want.begin(),
                                Want.end());
  size_t At = static_cast<size_t>(Mismatch.first - Got.begin());
  size_t Start = At == 0 ? 0 : Got.rfind('\n', At - 1) + 1;
  auto lineAt = [Start](const std::string &Text) {
    if (Start >= Text.size())
      return std::string("<end of text>");
    return Text.substr(Start, Text.find('\n', Start) - Start);
  };
  auto Line = std::count(Got.begin(), Got.begin() + Start, '\n') + 1;
  return "first difference at line " + std::to_string(Line) + ": got '" +
         lineAt(Got) + "', want '" + lineAt(Want) + "'";
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
    EXPECT_TRUE(Text == Expected)
        << B.Name << ": .qc output diverged from the seed pipeline, "
        << firstDifference(Text, Expected);
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

// The legacy gate-level leg: byte length and support::hashBytes of each
// benchmark's `.qc` text lowered to the Toffoli and Clifford+T levels
// (`spirec --emit toffoli|cliffordt`), recorded when those levels still
// decomposed inside the circuit-compile stage. They now run through the
// legalize stage onto the equivalent basis, which must write the same
// bytes, with or without SPIRE_VERIFY_EACH.
TEST(GoldenQc, BenchmarksEmitSeedIdenticalLegacyLevels) {
  struct Digest {
    const char *Name;
    interchange::Basis Level;
    size_t Bytes;
    uint64_t Hash;
  };
  constexpr interchange::Basis Toffoli = interchange::Basis::Toffoli;
  constexpr interchange::Basis CliffordT = interchange::Basis::CX;
  static const Digest Expected[] = {
      {"length", Toffoli, 490400, 0x8d6b2a99a03c2dbbull},
      {"length", CliffordT, 3492650, 0x2e61478c530273d6ull},
      {"sum", Toffoli, 492428, 0xdecbb4ef97515a8eull},
      {"sum", CliffordT, 3494678, 0xfe01c265b74e7decull},
      {"find_pos", Toffoli, 496783, 0xbf1199a58edcb9f4ull},
      {"find_pos", CliffordT, 3511247, 0x465fa1021f6c7f8bull},
      {"remove", Toffoli, 564850, 0xeb27b526bdc3491full},
      {"remove", CliffordT, 4366503, 0xe7509b7344516ecbull},
      {"push_back", Toffoli, 845949, 0x482d3b5231abe1ffull},
      {"push_back", CliffordT, 6535887, 0x071ce09bb1fe1ef3ull},
      {"pop_front", Toffoli, 75003, 0xfdc28b56ee0bd3a1ull},
      {"pop_front", CliffordT, 543875, 0x0f89c3df78e51ddcull},
      {"is_prefix", Toffoli, 969028, 0xcdd412bf460083edull},
      {"is_prefix", CliffordT, 6923042, 0xf07a22d722df6626ull},
      {"num_matching", Toffoli, 982353, 0xf2b7ae691ab8a59aull},
      {"num_matching", CliffordT, 7025971, 0x67467173f3ab1a6dull},
      {"compare", Toffoli, 969556, 0xf66bb4cdfb5af78bull},
      {"compare", CliffordT, 6925142, 0xdee11d491a165896ull},
      {"insert", Toffoli, 2805199, 0x381dcc1900d87475ull},
      {"insert", CliffordT, 20528386, 0xf3b27b8d40862765ull},
      {"contains", Toffoli, 4408690, 0x0b02252927041f10ull},
      {"contains", CliffordT, 31406970, 0x5f130a6bda64a4ccull},
  };
  const auto &All = benchmarks::allBenchmarks();
  ASSERT_EQ(2 * All.size(), std::size(Expected));
  for (const Digest &D : Expected) {
    SCOPED_TRACE(std::string(D.Name) + " at basis " +
                 interchange::basisName(D.Level));
    auto It = std::find_if(All.begin(), All.end(),
                           [&](const auto &B) { return B.Name == D.Name; });
    ASSERT_NE(It, All.end());
    std::string Text = compileTo(*It, interchange::Format::Qc, D.Level);
    EXPECT_EQ(Text.size(), D.Bytes);
    EXPECT_EQ(support::hashBytes(Text), D.Hash)
        << ".qc output at a legacy gate level diverged from the recorded "
           "digest";
  }
}
