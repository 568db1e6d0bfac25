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
#include "qopt/Passes.h"
#include "support/ArtifactCache.h"
#include "support/Hash.h"

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

/// Circuit-optimizer capture size: `length` at n=10, the end-to-end
/// bench's input; the other size-indexed benchmarks at n=2, or d=0 for
/// the fast-growing Set benchmarks, to keep the leg to a few seconds.
int64_t circuitOptSize(const benchmarks::BenchmarkProgram &B) {
  if (B.Name == "length")
    return 10;
  if (!B.SizeIndexed || B.Group == "Set")
    return 0;
  return 2;
}

/// The circuit text of benchmark B at `Size` under `Opts`.
std::string render(const benchmarks::BenchmarkProgram &B, int64_t Size,
                   driver::PipelineOptions Opts) {
  Opts.BuildCircuit = true;
  Opts.AnalyzeCost = false;
  driver::CompilationResult R = benchmarks::runPipelineOrDie(B, Size, Opts);
  driver::CompilationPipeline Pipeline(std::move(Opts));
  return Pipeline.renderFinalCircuit(R);
}

std::string compileTo(const benchmarks::BenchmarkProgram &B,
                      interchange::Format Format,
                      std::optional<interchange::Basis> Basis = {}) {
  driver::PipelineOptions Opts;
  Opts.OutputFormat = Format;
  Opts.Basis = Basis;
  return render(B, goldenSize(B), std::move(Opts));
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

// The circuit-optimizer leg: byte length and support::hashBytes of each
// benchmark's `.qc` text under the Section 8.3 cancellation and folding
// baselines, recorded before the cancellation partner search became
// wire-indexed, at circuitOptSize. A mismatch means a qopt pass (or the
// decomposition feeding it) changed which gates it emits.
TEST(GoldenQc, BenchmarksCircuitOptSeedIdentical) {
  using driver::CircuitOptimizerKind;
  struct Digest {
    const char *Name;
    CircuitOptimizerKind Kind;
    size_t Bytes;
    uint64_t Hash;
  };
  constexpr CircuitOptimizerKind Peephole = CircuitOptimizerKind::Peephole;
  constexpr CircuitOptimizerKind CliffordT =
      CircuitOptimizerKind::CliffordTCancel;
  constexpr CircuitOptimizerKind Toffoli =
      CircuitOptimizerKind::ToffoliCancel;
  constexpr CircuitOptimizerKind Rotation =
      CircuitOptimizerKind::RotationMerging;
  static const Digest Expected[] = {
      {"length", Peephole, 11720759, 0x813b8d67fb242c9bull},
      {"length", CliffordT, 11726617, 0xc204d276721064deull},
      {"length", Toffoli, 10863277, 0x2eea6f39e726dc2cull},
      {"length", Rotation, 13068925, 0x3b3a10457cdf9746ull},
      {"sum", Peephole, 2279193, 0x6a5eceebd654d811ull},
      {"sum", CliffordT, 2274559, 0x2d9e317532daf897ull},
      {"sum", Toffoli, 1349397, 0xdf2cc90dcd0c66e5ull},
      {"sum", Rotation, 2557149, 0x9d797062796cd09cull},
      {"find_pos", Peephole, 2290435, 0xd5ecd8d2b7a8420aull},
      {"find_pos", CliffordT, 2286530, 0x61a5c299f67dde86ull},
      {"find_pos", Toffoli, 1369557, 0x0fbaf5ce6f1ee52eull},
      {"find_pos", Rotation, 2569337, 0xbf6420dd213c2442ull},
      {"remove", Peephole, 2875281, 0x6e837813187c24ffull},
      {"remove", CliffordT, 2975739, 0xa1704463ac5d7259ull},
      {"remove", Toffoli, 1946099, 0xe574acb94bb500d7ull},
      {"remove", Rotation, 3199470, 0x996e81831822bf1dull},
      {"push_back", Peephole, 4317566, 0x3aad6690be05136cull},
      {"push_back", CliffordT, 4469688, 0x7f6ce95c8d44faa6ull},
      {"push_back", Toffoli, 3385732, 0xea18f9e4fecc62e6ull},
      {"push_back", Rotation, 4794177, 0x71eb48ce313c96e8ull},
      {"pop_front", Peephole, 539395, 0xe2e8be46a700c760ull},
      {"pop_front", CliffordT, 536776, 0x1e825236d1c44bc4ull},
      {"pop_front", Toffoli, 78213, 0x574c52a0cb02837dull},
      {"pop_front", Rotation, 609667, 0xea15997829a4e120ull},
      {"is_prefix", Peephole, 4532565, 0xb94570291a8cff3aull},
      {"is_prefix", CliffordT, 4518701, 0x88d05e004258a672ull},
      {"is_prefix", Toffoli, 2664959, 0xaadbc230ac25bfe2ull},
      {"is_prefix", Rotation, 5070916, 0x51a4c10630875413ull},
      {"num_matching", Peephole, 4600623, 0x49a3dd8cfc2155c5ull},
      {"num_matching", CliffordT, 4589312, 0xae1a79d4ac7a0264ull},
      {"num_matching", Toffoli, 2737617, 0x7e8ee1774f1ef42full},
      {"num_matching", Rotation, 5147630, 0x0bba7704de50c262ull},
      {"compare", Peephole, 4533965, 0x9c21c007a100d5c3ull},
      {"compare", CliffordT, 4520273, 0xf546341998440e42ull},
      {"compare", Toffoli, 2666359, 0x2c9c82facf34b3dbull},
      {"compare", Rotation, 5072362, 0xfbca651ba616bf4dull},
      {"insert", Peephole, 3193839, 0xa9488a44d8c8df4full},
      {"insert", CliffordT, 3304595, 0xd286da393a99e7a4ull},
      {"insert", Toffoli, 1769013, 0x11b6b6393504835aull},
      {"insert", Rotation, 3559868, 0xc9a7a9bcaa80fc85ull},
      {"contains", Peephole, 1626867, 0x58a9152e6d861377ull},
      {"contains", CliffordT, 1619887, 0x8022365a06df9c0dull},
      {"contains", Toffoli, 206181, 0x1773bd3ea3f83463ull},
      {"contains", Rotation, 1837902, 0x48c3f4166a5493fbull},
  };
  const auto &All = benchmarks::allBenchmarks();
  ASSERT_EQ(4 * All.size(), std::size(Expected));
  for (const Digest &D : Expected) {
    SCOPED_TRACE(std::string(D.Name) + " under " +
                 driver::optimizerName(D.Kind));
    auto It = std::find_if(All.begin(), All.end(),
                           [&](const auto &B) { return B.Name == D.Name; });
    ASSERT_NE(It, All.end());
    driver::PipelineOptions Opts;
    Opts.CircuitOpt = D.Kind;
    std::string Text = render(*It, circuitOptSize(*It), std::move(Opts));
    EXPECT_EQ(Text.size(), D.Bytes);
    EXPECT_EQ(support::hashBytes(Text), D.Hash)
        << ".qc output under a circuit optimizer diverged from the "
           "recorded digest";
  }
}

namespace {

/// A random circuit on 4..64 qubits, at the Clifford+T level (NOT,
/// CNOT, H, phases) or the Toffoli level (X with up to two controls, H,
/// CH), rich in cancellation material: mirrored blocks whose inner pairs
/// must go before the outer ones come into a small lookahead, and
/// repeated or inverted neighbors.
circuit::Circuit randomCancellable(uint64_t Seed, bool ToffoliLevel) {
  using namespace circuit;
  uint64_t Rng = Seed;
  auto below = [&](uint64_t N) { return support::splitMix64(Rng) % N; };
  Circuit C;
  C.NumQubits = static_cast<unsigned>(4 + below(61));
  auto other = [&](Qubit Not1, Qubit Not2) {
    Qubit Q;
    do
      Q = static_cast<Qubit>(below(C.NumQubits));
    while (Q == Not1 || Q == Not2);
    return Q;
  };
  auto randomGate = [&] {
    Qubit T = static_cast<Qubit>(below(C.NumQubits));
    static constexpr GateKind Phases[] = {GateKind::T, GateKind::Tdg,
                                          GateKind::S, GateKind::Sdg,
                                          GateKind::Z};
    switch (below(ToffoliLevel ? 6 : 5)) {
    case 0:
      return Gate(GateKind::X, T);
    case 1: {
      Qubit A = other(T, T);
      return Gate(GateKind::X, T, {A});
    }
    case 2:
      return Gate(GateKind::H, T);
    case 3:
    case 4:
      if (!ToffoliLevel)
        return Gate(Phases[below(5)], T);
      if (below(2)) {
        Qubit A = other(T, T);
        return Gate(GateKind::X, T, {A, other(T, A)});
      }
      return Gate(GateKind::H, T, {other(T, T)});
    default: {
      Qubit A = other(T, T);
      return Gate(GateKind::X, T, {A, other(T, A)});
    }
    }
  };
  auto inverse = [](Gate G) {
    switch (G.Kind) {
    case GateKind::T:
      G.Kind = GateKind::Tdg;
      break;
    case GateKind::Tdg:
      G.Kind = GateKind::T;
      break;
    case GateKind::S:
      G.Kind = GateKind::Sdg;
      break;
    case GateKind::Sdg:
      G.Kind = GateKind::S;
      break;
    default:
      break; // X, H, Z are self-inverse.
    }
    return G;
  };

  size_t Target = 200 + below(800);
  std::vector<Gate> Block;
  while (C.Gates.size() < Target) {
    uint64_t R = below(10);
    if (R < 4) {
      C.Gates.push_back(randomGate());
    } else if (R < 8) {
      Block.clear();
      for (uint64_t K = 1 + below(6); K-- > 0;)
        Block.push_back(randomGate());
      for (const Gate &G : Block)
        C.Gates.push_back(G);
      for (uint64_t K = below(3); K-- > 0;)
        C.Gates.push_back(randomGate());
      for (auto It = Block.rbegin(); It != Block.rend(); ++It)
        C.Gates.push_back(inverse(*It));
    } else if (!C.Gates.empty()) {
      Gate Last = C.Gates.back();
      C.Gates.push_back(R == 8 ? Last : inverse(Last));
    }
  }
  return C;
}

} // namespace

// The cancellation leg: random Clifford+T and Toffoli-level circuits
// through cancelAdjacentGates at every lookahead the baselines use and
// the small ones where a window spans gates already cancelled. One
// combined digest of the output gates and one gate total per lookahead,
// recorded before the partner search became wire-indexed.
TEST(GoldenQc, RandomCancellationSeedIdentical) {
  struct Digest {
    unsigned Lookahead;
    size_t Gates;
    uint64_t Hash;
  };
  static const Digest Expected[] = {
      {0, 23330, 0xf9554e78480e7bfbull},
      {1, 23330, 0xf9554e78480e7bfbull},
      {2, 16282, 0x6b8daf72339c274bull},
      {3, 10652, 0xd34ef543191f772full},
      {8, 9068, 0x5c2754c57beae5aeull},
      {128, 8594, 0x724d16b904d699d5ull},
      {qopt::CancelOptions::Unbounded, 8590, 0x03ae1afa26278324ull},
  };
  for (const Digest &D : Expected) {
    SCOPED_TRACE("lookahead " + std::to_string(D.Lookahead));
    qopt::CancelOptions Opts;
    Opts.MaxLookahead = D.Lookahead;
    std::string Text;
    size_t Gates = 0;
    for (uint64_t Seed = 1; Seed != 61; ++Seed) {
      circuit::Circuit Out = qopt::cancelAdjacentGates(
          randomCancellable(Seed, /*ToffoliLevel=*/Seed % 2 == 0), Opts);
      Gates += Out.Gates.size();
      for (const circuit::Gate &G : Out.Gates)
        Text += G.str() + "\n";
      Text += "--\n";
    }
    EXPECT_EQ(Gates, D.Gates);
    EXPECT_EQ(support::hashBytes(Text), D.Hash)
        << "cancellation output diverged from the recorded digest";
  }
}
