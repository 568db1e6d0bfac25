//===----------------------------------------------------------------------===//
// Tests for the support library: diagnostics, rationals, polynomial fit.
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/FileIO.h"
#include "support/PolyFit.h"
#include "support/Rational.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

using namespace spire::support;

TEST(Rational, IntegerBasics) {
  Rational A(6), B(4);
  EXPECT_EQ((A + B).asInteger(), 10);
  EXPECT_EQ((A - B).asInteger(), 2);
  EXPECT_EQ((A * B).asInteger(), 24);
  EXPECT_EQ((A / B).str(), "3/2");
}

TEST(Rational, Normalization) {
  EXPECT_EQ(Rational(6, 4).str(), "3/2");
  EXPECT_EQ(Rational(-6, 4).str(), "-3/2");
  EXPECT_EQ(Rational(6, -4).str(), "-3/2");
  EXPECT_EQ(Rational(0, 7).str(), "0");
  EXPECT_TRUE(Rational(0, 3).isZero());
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_NE(Rational(2, 4), Rational(1, 3));
  EXPECT_TRUE(Rational(-1, 2).isNegative());
}

TEST(Rational, ArithmeticIdentities) {
  Rational X(7, 3);
  EXPECT_EQ(X + Rational(0), X);
  EXPECT_EQ(X * Rational(1), X);
  EXPECT_EQ(X - X, Rational(0));
  EXPECT_EQ(X / X, Rational(1));
  EXPECT_EQ(-(-X), X);
}

TEST(PolyFit, Constant) {
  Polynomial P = fitPolynomial(2, {1452, 1452, 1452, 1452});
  EXPECT_EQ(P.degree(), 0);
  EXPECT_EQ(P.str("n"), "1452");
}

TEST(PolyFit, LinearPaperStyle) {
  // Table 1 length MCX-complexity: 2246n + 32.
  std::vector<int64_t> Values;
  for (int64_t N = 2; N <= 10; ++N)
    Values.push_back(2246 * N + 32);
  Polynomial P = fitPolynomial(2, Values);
  EXPECT_EQ(P.degree(), 1);
  EXPECT_EQ(P.str("n"), "2246n+32");
}

TEST(PolyFit, QuadraticPaperStyle) {
  // Table 1 length T-complexity: 15722n^2 + 19292n + 3934.
  std::vector<int64_t> Values;
  for (int64_t N = 2; N <= 10; ++N)
    Values.push_back(15722 * N * N + 19292 * N + 3934);
  Polynomial P = fitPolynomial(2, Values);
  EXPECT_EQ(P.degree(), 2);
  EXPECT_EQ(P.str("n"), "15722n^2+19292n+3934");
}

TEST(PolyFit, NegativeCoefficient) {
  // Table 1 find_pos: 16058n^2 - 8820n + 6426.
  std::vector<int64_t> Values;
  for (int64_t N = 2; N <= 10; ++N)
    Values.push_back(16058 * N * N - 8820 * N + 6426);
  Polynomial P = fitPolynomial(2, Values);
  EXPECT_EQ(P.str("n"), "16058n^2-8820n+6426");
}

TEST(PolyFit, FractionalCoefficients) {
  // Table 3 insert: (3076192/3) d^3 + ... — fit must be exact rationals.
  // Use y = n(n+1)(n+2)/6 (integer-valued, non-integer coefficients).
  std::vector<int64_t> Values;
  for (int64_t N = 1; N <= 8; ++N)
    Values.push_back(N * (N + 1) * (N + 2) / 6);
  Polynomial P = fitPolynomial(1, Values);
  EXPECT_EQ(P.degree(), 3);
  EXPECT_EQ(P.Coeffs[3], Rational(1, 6));
  // Spot-check exact evaluation.
  EXPECT_EQ(P.evaluate(20).asInteger(), 20 * 21 * 22 / 6);
}

TEST(PolyFit, EvaluateMatchesSamples) {
  std::vector<int64_t> Values = {5, 17, 43, 91, 169, 285};
  Polynomial P = fitPolynomial(3, Values);
  for (size_t I = 0; I != Values.size(); ++I) {
    Rational Y = P.evaluate(3 + static_cast<int64_t>(I));
    ASSERT_TRUE(Y.isInteger());
    EXPECT_EQ(Y.asInteger(), Values[I]);
  }
}

TEST(PolyFit, DegreeHelper) {
  EXPECT_EQ(fittedDegree(2, {7, 7, 7}), 0);
  EXPECT_EQ(fittedDegree(2, {1, 2, 3, 4}), 1);
  EXPECT_EQ(fittedDegree(0, {0, 1, 4, 9, 16}), 2);
  EXPECT_EQ(fittedDegree(0, {0, 1, 8, 27, 64}), 3);
}

TEST(Diagnostics, Accumulation) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning({1, 2}, "watch out");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error({3, 7}, "bad thing");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  std::string Text = Diags.str();
  EXPECT_NE(Text.find("error: 3:7: bad thing"), std::string::npos);
  EXPECT_NE(Text.find("warning: 1:2: watch out"), std::string::npos);
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(Diagnostics, UnknownLocation) {
  DiagnosticEngine Diags;
  Diags.error("free-floating");
  EXPECT_EQ(Diags.diagnostics()[0].str(), "error: free-floating");
}

//===----------------------------------------------------------------------===//
// Property sweeps for the exact arithmetic underpinning every degree
// claim in the evaluation: randomized field-axiom checks for Rational
// and fit-recovers-the-generator checks for PolyFit.
//===----------------------------------------------------------------------===//

#include <random>

namespace {

Rational randomRational(std::mt19937_64 &Rng) {
  int64_t Num = static_cast<int64_t>(Rng() % 2001) - 1000;
  int64_t Den = 1 + static_cast<int64_t>(Rng() % 50);
  return Rational(Num, Den);
}

} // namespace

class RationalProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RationalProperty, FieldAxioms) {
  std::mt19937_64 Rng(GetParam());
  Rational A = randomRational(Rng), B = randomRational(Rng),
           C = randomRational(Rng);
  EXPECT_EQ(A + B, B + A);
  EXPECT_EQ(A * B, B * A);
  EXPECT_EQ((A + B) + C, A + (B + C));
  EXPECT_EQ((A * B) * C, A * (B * C));
  EXPECT_EQ(A * (B + C), A * B + A * C);
  EXPECT_EQ(A + Rational(0), A);
  EXPECT_EQ(A * Rational(1), A);
  EXPECT_EQ(A - A, Rational(0));
  EXPECT_EQ(A + (-A), Rational(0));
}

TEST_P(RationalProperty, OrderingConsistentWithDifference) {
  std::mt19937_64 Rng(GetParam() * 5 + 1);
  Rational A = randomRational(Rng), B = randomRational(Rng);
  EXPECT_EQ(A < B, (B - A).isNegative() == false && !(A == B));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalProperty,
                         ::testing::Range<uint64_t>(900, 915));

class PolyFitProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PolyFitProperty, FitRecoversGeneratingPolynomial) {
  // Sample a random integer polynomial of degree <= 4 at consecutive
  // points; the exact fit must reproduce the polynomial everywhere,
  // including outside the sample window.
  std::mt19937_64 Rng(GetParam());
  unsigned Degree = Rng() % 5;
  std::vector<int64_t> Coeffs(Degree + 1);
  for (auto &C : Coeffs)
    C = static_cast<int64_t>(Rng() % 201) - 100;

  auto Eval = [&](int64_t X) {
    int64_t Acc = 0, Pow = 1;
    for (int64_t C : Coeffs) {
      Acc += C * Pow;
      Pow *= X;
    }
    return Acc;
  };

  int64_t Start = static_cast<int64_t>(Rng() % 5) + 1;
  std::vector<int64_t> Values;
  for (int64_t X = Start; X != Start + 8; ++X)
    Values.push_back(Eval(X));

  Polynomial P = fitPolynomial(Start, Values);
  EXPECT_LE(P.degree(), static_cast<int>(Degree));
  for (int64_t X = 0; X != 20; ++X) {
    Rational V = P.evaluate(X);
    ASSERT_TRUE(V.isInteger()) << "x=" << X;
    EXPECT_EQ(V.asInteger(), Eval(X)) << "x=" << X;
  }
}

TEST_P(PolyFitProperty, DegreeIsMinimal) {
  // A genuinely degree-d series must not fit any lower degree: perturb
  // the fit by dropping its leading term and check disagreement.
  std::mt19937_64 Rng(GetParam() * 7 + 3);
  unsigned Degree = 1 + Rng() % 4;
  std::vector<int64_t> Coeffs(Degree + 1);
  for (auto &C : Coeffs)
    C = static_cast<int64_t>(Rng() % 100);
  Coeffs.back() = 1 + static_cast<int64_t>(Rng() % 100); // nonzero lead

  auto Eval = [&](int64_t X) {
    int64_t Acc = 0, Pow = 1;
    for (int64_t C : Coeffs) {
      Acc += C * Pow;
      Pow *= X;
    }
    return Acc;
  };
  std::vector<int64_t> Values;
  for (int64_t X = 2; X != 11; ++X)
    Values.push_back(Eval(X));
  EXPECT_EQ(fittedDegree(2, Values), static_cast<int>(Degree));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolyFitProperty,
                         ::testing::Range<uint64_t>(950, 970));

//===----------------------------------------------------------------------===//
// Symbol interning (support/Symbol.h): the identity backbone of the
// middle end. Duplicate spellings must collapse to one id, distinct
// spellings must never collide, and spellings must survive arena growth.
//===----------------------------------------------------------------------===//

#include "support/Symbol.h"

TEST(Symbol, InterningDeduplicatesSpellings) {
  Symbol A("length");
  Symbol B(std::string("length"));
  Symbol C(std::string_view("length"));
  EXPECT_EQ(A, B);
  EXPECT_EQ(B, C);
  EXPECT_EQ(A.view(), "length");
}

TEST(Symbol, DistinctSpellingsGetDistinctIds) {
  Symbol A("x"), B("x'1"), C("x'2"), D("%e0");
  EXPECT_NE(A, B);
  EXPECT_NE(B, C);
  EXPECT_NE(A, D);
  EXPECT_EQ(B.str(), "x'1");
}

TEST(Symbol, EmptySymbolBehavesLikeEmptyString) {
  Symbol Default;
  Symbol Interned("");
  EXPECT_TRUE(Default.empty());
  EXPECT_EQ(Default, Interned);
  EXPECT_EQ(Default.id(), 0u);
  EXPECT_EQ(Default.view(), "");
  EXPECT_FALSE(Symbol("nonempty").empty());
}

TEST(Symbol, SpellingsSurviveTableGrowthAndLongNames) {
  // Force rehashes and multiple arena chunks; previously returned views
  // must stay valid and correct throughout.
  Symbol First("growth-probe-first");
  std::string_view FirstView = First.view();
  std::vector<Symbol> Many;
  for (int I = 0; I != 5000; ++I)
    Many.push_back(Symbol("growth-probe-" + std::to_string(I)));
  std::string Long(200000, 'q'); // Larger than one 64 KiB arena chunk.
  Symbol Big(Long);
  EXPECT_EQ(First.view(), FirstView);
  EXPECT_EQ(Big.view().size(), Long.size());
  for (int I = 0; I != 5000; ++I)
    EXPECT_EQ(Many[I].view(), "growth-probe-" + std::to_string(I));
}

TEST(SymbolSet, FlatSetOperations) {
  SymbolSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_TRUE(S.insert(Symbol("b")));
  EXPECT_TRUE(S.insert(Symbol("a")));
  EXPECT_FALSE(S.insert(Symbol("a"))) << "duplicate insert must be a no-op";
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.count(Symbol("a")));
  EXPECT_FALSE(S.count(Symbol("zz-not-there")));
  EXPECT_EQ(S.spellings(), (std::vector<std::string>{"a", "b"}));
}

TEST(SymbolSet, AdoptUnsortedSortsAndDedupes) {
  std::vector<Symbol> Raw{Symbol("w"), Symbol("q"), Symbol("w"),
                          Symbol("q"), Symbol("m")};
  SymbolSet S;
  S.adoptUnsorted(std::move(Raw));
  EXPECT_EQ(S.size(), 3u);
  EXPECT_EQ(S.spellings(), (std::vector<std::string>{"m", "q", "w"}));
  // Sorted by id, not spelling: ids are strictly increasing in interning
  // order, and membership relies on that invariant.
  uint32_t Prev = 0;
  for (Symbol Sym : S) {
    EXPECT_GT(Sym.id(), Prev);
    Prev = Sym.id();
  }
}

//===----------------------------------------------------------------------===//
// SymbolMap (support/SymbolMap.h): the flat Symbol-keyed hash map. A
// seeded differential test against std::unordered_map over random
// operations, with key pools chosen so that probe runs wrap past the end
// of the slot array and backward-shift erase has to move entries across
// the wrap.
//===----------------------------------------------------------------------===//

#include "support/Hash.h"
#include "support/SymbolMap.h"

#include <unordered_map>

namespace {

/// The reference: the same entries keyed by id.
using RefMap = std::unordered_map<uint32_t, int>;

/// Checks that `M` holds exactly the entries of `Ref`: equal sizes, and
/// iteration visits every live key exactly once with its value.
void expectSameEntries(const SymbolMap<int> &M, const RefMap &Ref) {
  ASSERT_EQ(M.size(), Ref.size());
  EXPECT_EQ(M.empty(), Ref.empty());
  RefMap Visited;
  for (const auto &[Key, Value] : M)
    EXPECT_TRUE(Visited.emplace(Key.id(), Value).second)
        << "key " << Key.id() << " visited twice";
  EXPECT_EQ(Visited, Ref);
}

/// `Count` ids whose probe starts at one of `Homes` in a table of
/// `Buckets` slots, skipping ids already in `Taken`.
std::vector<uint32_t> idsHomedAt(std::initializer_list<size_t> Homes,
                                 size_t Buckets, size_t Count,
                                 std::vector<uint32_t> &Taken) {
  std::vector<uint32_t> Out;
  for (uint32_t Id = 1; Out.size() != Count; ++Id) {
    size_t Home = SymbolMap<int>::homeSlot(Symbol::fromId(Id), Buckets);
    if (std::find(Homes.begin(), Homes.end(), Home) != Homes.end() &&
        std::find(Taken.begin(), Taken.end(), Id) == Taken.end()) {
      Out.push_back(Id);
      Taken.push_back(Id);
    }
  }
  return Out;
}

/// Runs `Ops` seeded random operations on `M` and `Ref` over keys drawn
/// from `Pool`, comparing every result and, every 1,000 operations, the
/// whole contents.
void runDifferential(SymbolMap<int> &M, RefMap &Ref,
                     const std::vector<uint32_t> &Pool, uint64_t Seed,
                     int Ops) {
  uint64_t State = Seed;
  for (int I = 0; I != Ops; ++I) {
    uint64_t R = splitMix64(State);
    uint32_t Id = Pool[(R >> 8) % Pool.size()];
    Symbol Key = Symbol::fromId(Id);
    int Value = static_cast<int>((R >> 40) & 0xffff);
    switch (R % 9) {
    case 0:
    case 1: // Insert or overwrite through operator[].
      M[Key] = Value;
      Ref[Id] = Value;
      break;
    case 2: { // emplace: never overwrites.
      auto [It, Inserted] = M.emplace(Key, Value);
      auto [RefIt, RefInserted] = Ref.emplace(Id, Value);
      EXPECT_EQ(Inserted, RefInserted);
      EXPECT_EQ(It->first, Key);
      EXPECT_EQ(It->second, RefIt->second);
      break;
    }
    case 3: // Erase by key.
      EXPECT_EQ(M.erase(Key), Ref.erase(Id));
      break;
    case 4: { // Erase by iterator.
      auto It = M.find(Key);
      ASSERT_EQ(It != M.end(), Ref.count(Id) != 0);
      if (It != M.end()) {
        M.erase(It);
        Ref.erase(Id);
      }
      break;
    }
    case 5: { // find, and a write through the found entry.
      auto It = M.find(Key);
      auto RefIt = Ref.find(Id);
      ASSERT_EQ(It != M.end(), RefIt != Ref.end());
      if (It != M.end()) {
        EXPECT_EQ(It->second, RefIt->second);
        It->second = RefIt->second = Value;
      }
      break;
    }
    case 6:
      EXPECT_EQ(M.count(Key), Ref.count(Id));
      break;
    case 7: { // Lookups through a const map.
      const SymbolMap<int> &C = M;
      auto It = C.find(Key);
      EXPECT_EQ(It == C.end(), Ref.count(Id) == 0);
      break;
    }
    case 8: // Rarely: clear, then keep using the map.
      if ((R >> 32) % 97 == 0) {
        M.clear();
        Ref.clear();
        expectSameEntries(M, Ref);
      }
      break;
    }
    if (I % 1000 == 999)
      expectSameEntries(M, Ref);
  }
  expectSameEntries(M, Ref);
}

} // namespace

TEST(SymbolMap, EmptyMapAllocatesNothing) {
  SymbolMap<int> M;
  EXPECT_EQ(M.bucketCount(), 0u);
  EXPECT_TRUE(M.find(Symbol::fromId(7)) == M.end());
  EXPECT_EQ(M.count(Symbol::fromId(7)), 0u);
  EXPECT_EQ(M.erase(Symbol::fromId(7)), 0u);
  M.clear();
  EXPECT_TRUE(M.begin() == M.end());
  EXPECT_EQ(M.bucketCount(), 0u);
}

TEST(SymbolMap, ProbeRunWrapsPastTheEndAndErasesBackAcrossIt) {
  SymbolMap<int> M;
  M.reserve(48);
  ASSERT_EQ(M.bucketCount(), 64u);
  std::vector<uint32_t> Taken;
  std::vector<uint32_t> Last = idsHomedAt({63}, 64, 4, Taken);
  std::vector<uint32_t> First = idsHomedAt({0}, 64, 2, Taken);
  for (uint32_t Id : Last)
    M[Symbol::fromId(Id)] = static_cast<int>(Id);
  // Slot 63 holds one of them; the other three wrapped to slots 0-2, so
  // iteration (slot order) starts with a key homed at 63.
  EXPECT_EQ(SymbolMap<int>::homeSlot(M.begin()->first, 64), 63u);
  for (uint32_t Id : First)
    M[Symbol::fromId(Id)] = static_cast<int>(Id);
  // Erasing the run's head shifts every wrapped entry back by one, across
  // the wrap; each must stay reachable.
  RefMap Ref;
  for (uint32_t Id : Last)
    Ref[Id] = static_cast<int>(Id);
  for (uint32_t Id : First)
    Ref[Id] = static_cast<int>(Id);
  for (uint32_t Id : Last) {
    ASSERT_EQ(M.erase(Symbol::fromId(Id)), 1u);
    Ref.erase(Id);
    for (const auto &[RefId, Value] : Ref) {
      auto It = M.find(Symbol::fromId(RefId));
      ASSERT_TRUE(It != M.end()) << "lost id " << RefId;
      EXPECT_EQ(It->second, Value);
    }
    expectSameEntries(M, Ref);
  }
  EXPECT_EQ(M.bucketCount(), 64u);
}

TEST(SymbolMap, DifferentialAgainstUnorderedMap) {
  // Phase 1: a fixed 64-slot table. The pool is two collision runs, one
  // homed at the last two slots (so it wraps) and one at the first two
  // (so it collides with the wrapped entries), plus scattered ids; it
  // never outgrows the reservation, so every erase shifts within it.
  SymbolMap<int> M;
  M.reserve(48);
  ASSERT_EQ(M.bucketCount(), 64u);
  std::vector<uint32_t> Pool;
  idsHomedAt({62, 63}, 64, 12, Pool);
  idsHomedAt({0, 1}, 64, 12, Pool);
  for (uint32_t Id = 100000; Pool.size() != 44; Id += 7919)
    Pool.push_back(Id);
  RefMap Ref;
  runDifferential(M, Ref, Pool, /*Seed=*/1, 60000);
  EXPECT_EQ(M.bucketCount(), 64u);

  // Copy-assign, then check the copy is independent of the original.
  SymbolMap<int> Copy;
  Copy[Symbol::fromId(5)] = 5;
  Copy = M;
  expectSameEntries(Copy, Ref);
  RefMap CopyRef = Ref;
  runDifferential(Copy, CopyRef, Pool, /*Seed=*/2, 5000);
  expectSameEntries(M, Ref);

  // Phase 2: a wide pool that makes the table grow (rehash) while erases
  // keep emptying it.
  std::vector<uint32_t> Wide;
  for (uint32_t Id = 1; Id != 3001; ++Id)
    Wide.push_back(Id * 3);
  runDifferential(M, Ref, Wide, /*Seed=*/3, 60000);
  EXPECT_GT(M.bucketCount(), 64u);

  // Clear, then reuse the grown table.
  M.clear();
  Ref.clear();
  expectSameEntries(M, Ref);
  runDifferential(M, Ref, Pool, /*Seed=*/4, 5000);
}

//===----------------------------------------------------------------------===//
// readFile
//===----------------------------------------------------------------------===//

namespace {

std::string writeTempFile(const std::string &Name, const std::string &Text) {
  std::string Path = ::testing::TempDir() + Name;
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return Path;
}

} // namespace

TEST(ReadFile, EmptyFile) {
  std::string Path = writeTempFile("readfile_empty.txt", "");
  std::string Text = "stale", Error;
  ASSERT_TRUE(readFile(Path, Text, Error)) << Error;
  EXPECT_EQ(Text, "");
  std::remove(Path.c_str());
}

TEST(ReadFile, FileLargerThanOneMiB) {
  std::string Expected;
  for (int I = 0; Expected.size() < (size_t{3} << 19); ++I)
    Expected += "tof q" + std::to_string(I) + " q" + std::to_string(I + 1) +
                "\n";
  std::string Path = writeTempFile("readfile_large.txt", Expected);
  std::string Text, Error;
  ASSERT_TRUE(readFile(Path, Text, Error)) << Error;
  EXPECT_EQ(Text.size(), Expected.size());
  EXPECT_EQ(Text, Expected);
  std::remove(Path.c_str());
}

TEST(ReadFile, MissingFileKeepsItsErrorText) {
  std::string Path = ::testing::TempDir() + "readfile_missing.txt";
  std::remove(Path.c_str());
  std::string Text, Error;
  EXPECT_FALSE(readFile(Path, Text, Error));
  EXPECT_EQ(Error, "cannot read " + Path);
}

TEST(ReadFile, NonRegularFileReadsToEnd) {
  std::string Text = "stale", Error;
  ASSERT_TRUE(readFile("/dev/null", Text, Error)) << Error;
  EXPECT_EQ(Text, "");
}
