//===----------------------------------------------------------------------===//
// Tests for the support library: diagnostics, rationals, polynomial fit.
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/FileIO.h"
#include "support/PolyFit.h"
#include "support/Rational.h"

#include <gtest/gtest.h>

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
