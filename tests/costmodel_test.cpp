//===----------------------------------------------------------------------===//
// Cost-model tests: Theorems 5.1 and 5.2 instantiated exactly against the
// backend, on hand-written programs, random programs, and the full
// benchmark suite; plus the paper's worked Section 3.4 relations.
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "benchmarks/Benchmarks.h"
#include "costmodel/CostModel.h"
#include "decompose/Decompose.h"
#include "obs/Metrics.h"
#include "opt/Spire.h"

#include <gtest/gtest.h>

using namespace spire;
using namespace spire::ir;

namespace {

circuit::TargetConfig Config;

costmodel::Cost predicted(const CoreProgram &P) {
  return costmodel::analyzeProgram(P, Config);
}

costmodel::Cost measured(const CoreProgram &P) {
  circuit::CompileResult R = circuit::compileToCircuit(P, Config);
  circuit::GateCounts Counts = circuit::countGates(R.Circ);
  return {Counts.Total, Counts.TComplexity};
}

} // namespace

TEST(CostModel, PaperConstants) {
  EXPECT_EQ(costmodel::CCtrl, 14); // 2 Toffolis x 7 T (Section 5)
  EXPECT_EQ(costmodel::CCH, 8);    // Lee et al. 2021
}

TEST(CostModel, SkipAndZeroAssignAreFree) {
  auto Types = std::make_shared<TypeContext>();
  const ast::Type *UInt = Types->uintType();
  CoreProgram P;
  P.Types = Types;
  P.OutputVar = "x";
  P.OutputTy = UInt;
  P.Body.push_back(CoreStmt::skip());
  // x <- 0 with an all-zero bit pattern emits no gates (Section 5).
  P.Body.push_back(
      CoreStmt::assign("x", UInt, CoreExpr::atom(Atom::constant(0, UInt))));
  costmodel::Cost C = predicted(P);
  EXPECT_EQ(C.MCX, 0);
  EXPECT_EQ(C.T, 0);
  EXPECT_EQ(measured(P).MCX, 0);
}

TEST(CostModel, ControlledConstantAssignIsTFree) {
  // C_T(if x { y <- v }) = 0: X under one control is CNOT (Clifford).
  auto Types = std::make_shared<TypeContext>();
  const ast::Type *UInt = Types->uintType();
  const ast::Type *Bool = Types->boolType();
  CoreProgram P;
  P.Types = Types;
  P.Inputs = {{"c", Bool}};
  P.OutputVar = "y";
  P.OutputTy = UInt;
  CoreStmtList Body;
  Body.push_back(
      CoreStmt::assign("y", UInt, CoreExpr::atom(Atom::constant(5, UInt))));
  P.Body.push_back(CoreStmt::ifStmt("c", std::move(Body)));
  costmodel::Cost C = predicted(P);
  EXPECT_GT(C.MCX, 0);
  EXPECT_EQ(C.T, 0);
  EXPECT_EQ(measured(P).T, 0);
}

TEST(CostModel, NestedControlledConstantCostsT) {
  // Two levels of if make the constant writes Toffolis: 7 T per set bit.
  auto Types = std::make_shared<TypeContext>();
  const ast::Type *UInt = Types->uintType();
  const ast::Type *Bool = Types->boolType();
  CoreProgram P;
  P.Types = Types;
  P.Inputs = {{"c1", Bool}, {"c2", Bool}};
  P.OutputVar = "y";
  P.OutputTy = UInt;
  CoreStmtList Inner;
  Inner.push_back(
      CoreStmt::assign("y", UInt, CoreExpr::atom(Atom::constant(3, UInt))));
  CoreStmtList Outer;
  Outer.push_back(CoreStmt::ifStmt("c2", std::move(Inner)));
  P.Body.push_back(CoreStmt::ifStmt("c1", std::move(Outer)));
  costmodel::Cost C = predicted(P);
  EXPECT_EQ(C.T, 2 * 7); // two set bits, each an X with 2 controls
  EXPECT_EQ(measured(P).T, C.T);
}

TEST(CostModel, ControlledHadamardCostsCCH) {
  auto Types = std::make_shared<TypeContext>();
  const ast::Type *Bool = Types->boolType();
  CoreProgram P;
  P.Types = Types;
  P.Inputs = {{"c", Bool}, {"y", Bool}};
  P.OutputVar = "y";
  P.OutputTy = Bool;
  CoreStmtList Body;
  Body.push_back(CoreStmt::hadamard("y", Bool));
  P.Body.push_back(CoreStmt::ifStmt("c", std::move(Body)));
  EXPECT_EQ(predicted(P).T, costmodel::CCH);
}

TEST(CostModel, WithBlockCountsReversalOnce) {
  // with { s1 } do { s2 } expands to s1; s2; I[s1]: cost 2*C(s1)+C(s2).
  auto Types = std::make_shared<TypeContext>();
  const ast::Type *UInt = Types->uintType();
  CoreProgram P;
  P.Types = Types;
  P.Inputs = {{"a", UInt}};
  P.OutputVar = "d";
  P.OutputTy = UInt;
  CoreStmtList WithBody, DoBody;
  WithBody.push_back(
      CoreStmt::assign("w", UInt, CoreExpr::atom(Atom::var("a", UInt))));
  DoBody.push_back(
      CoreStmt::assign("d", UInt, CoreExpr::atom(Atom::var("w", UInt))));
  P.Body.push_back(CoreStmt::with(std::move(WithBody), std::move(DoBody)));
  // A copy of one 8-bit register is 8 CNOTs; with-forward + do + reverse.
  EXPECT_EQ(predicted(P).MCX, 8 + 8 + 8);
  EXPECT_EQ(measured(P).MCX, 24);
}

/// Every Table-1 program at every size up to its Table-1 size (n=10 for
/// lists, queues and strings, d=6 for sets): large enough that the
/// profile cache serves most statements from entries first filled by a
/// differently named inlined instance.
template <typename Fn> void forEachTable1Point(Fn &&Check) {
  for (const auto &B : benchmarks::allBenchmarks()) {
    int64_t Last = !B.SizeIndexed ? 1 : B.Group == "Set" ? 6 : 10;
    for (int64_t N = 1; N <= Last; ++N)
      Check(B, benchmarks::lowerBenchmark(B, N), N);
  }
}

TEST(CostModel, ExactOnAllBenchmarks) {
  forEachTable1Point([](const benchmarks::BenchmarkProgram &B,
                        const CoreProgram &P, int64_t N) {
    EXPECT_EQ(predicted(P), measured(P)) << B.Name << " n=" << N;
  });
}

TEST(CostModel, ExactOnOptimizedBenchmarks) {
  forEachTable1Point([](const benchmarks::BenchmarkProgram &B,
                        const CoreProgram &P, int64_t N) {
    CoreProgram O = opt::optimizeProgram(P, opt::SpireOptions::all());
    EXPECT_EQ(predicted(O), measured(O)) << B.Name << " n=" << N;
  });
}

class CostModelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CostModelProperty, ExactOnRandomPrograms) {
  testutil::RandomProgramGen Gen(GetParam());
  CoreProgram P = Gen.generate(16);
  costmodel::Cost Pred = predicted(P);
  costmodel::Cost Meas = measured(P);
  EXPECT_EQ(Pred.MCX, Meas.MCX) << "seed " << GetParam();
  EXPECT_EQ(Pred.T, Meas.T) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostModelProperty,
                         ::testing::Range<uint64_t>(100, 125));

TEST(CostModel, TMatchesFullyDecomposedCircuit) {
  // The T prediction equals the literal T gate count after Clifford+T
  // decomposition, not just the counting rule at the MCX level.
  CoreProgram P =
      benchmarks::lowerBenchmark(benchmarks::lengthSimplified(), 3);
  circuit::CompileResult R = circuit::compileToCircuit(P, Config);
  circuit::Circuit CT = decompose::toCliffordT(R.Circ);
  EXPECT_EQ(predicted(P).T, circuit::countGates(CT).T);
}

TEST(CostModel, Section34Recurrence) {
  // Section 3.4: C_T(n) - C_T(n-1) grows linearly in n (the
  // C_MCX(n-1) control-flow term), so the second difference of C_T is a
  // positive constant while C_MCX's first difference is constant.
  std::vector<int64_t> MCX, T;
  for (int N = 2; N <= 7; ++N) {
    CoreProgram P =
        benchmarks::lowerBenchmark(benchmarks::lengthBenchmark(), N);
    costmodel::Cost C = predicted(P);
    MCX.push_back(C.MCX);
    T.push_back(C.T);
  }
  for (size_t I = 2; I < MCX.size(); ++I) {
    EXPECT_EQ(MCX[I] - MCX[I - 1], MCX[1] - MCX[0]) << "MCX linear";
    int64_t D2 = (T[I] - T[I - 1]) - (T[I - 1] - T[I - 2]);
    int64_t D2First = (T[2] - T[1]) - (T[1] - T[0]);
    EXPECT_EQ(D2, D2First) << "T second difference constant";
    EXPECT_GT(D2, 0);
  }
}

//===----------------------------------------------------------------------===//
// Control merging: when an if condition is itself read by the body, the
// compiled gate carries that qubit once, not twice; the model must match
// the circuit exactly in that case too.
//===----------------------------------------------------------------------===//

TEST(CostModel, ConditionReadInBodyMergesControls) {
  auto Types = std::make_shared<TypeContext>();
  const ast::Type *Bool = Types->boolType();
  CoreProgram P;
  P.Types = Types;
  P.Inputs = {{"b0", Bool}, {"b1", Bool}};
  P.OutputVar = "v";
  P.OutputTy = Bool;
  // if b0 { v <- b0 && b1 }: the && gate is controlled by b0 and b1
  // already; the if adds b0 again, which merges.
  CoreStmtList Body;
  Body.push_back(CoreStmt::assign(
      "v", Bool,
      CoreExpr::binary(ast::BinaryOp::And, Atom::var("b0", Bool),
                       Atom::var("b1", Bool), Bool)));
  P.Body.push_back(CoreStmt::ifStmt("b0", std::move(Body)));
  EXPECT_EQ(predicted(P).T, measured(P).T);
  // The gate stays a Toffoli (7 T), not a 3-control MCX (21 T).
  EXPECT_EQ(measured(P).T, 7);
}

TEST(CostModel, NestedSameConditionCountsOnce) {
  auto Types = std::make_shared<TypeContext>();
  const ast::Type *Bool = Types->boolType();
  const ast::Type *UInt = Types->uintType();
  CoreProgram P;
  P.Types = Types;
  P.Inputs = {{"x", Bool}, {"a", UInt}};
  P.OutputVar = "t";
  P.OutputTy = UInt;
  // if x { if x { t <- a } }: one control bit, not two.
  CoreStmtList Inner;
  Inner.push_back(CoreStmt::assign(
      "t", UInt, CoreExpr::atom(Atom::var("a", UInt))));
  CoreStmtList Outer;
  Outer.push_back(CoreStmt::ifStmt("x", std::move(Inner)));
  P.Body.push_back(CoreStmt::ifStmt("x", std::move(Outer)));
  EXPECT_EQ(predicted(P), measured(P));
  // The copy is 8 CNOTs (control a_i); the merged condition adds exactly
  // one control, making 8 Toffolis — not the 8 three-control MCX gates a
  // depth-2 count would give.
  EXPECT_EQ(measured(P).T, 8 * circuit::tCostOfMCX(2));
}

TEST(CostModel, DistinctConditionOverCoincidingOne) {
  auto Types = std::make_shared<TypeContext>();
  const ast::Type *Bool = Types->boolType();
  CoreProgram P;
  P.Types = Types;
  P.Inputs = {{"b0", Bool}, {"b1", Bool}, {"c", Bool}};
  P.OutputVar = "v";
  P.OutputTy = Bool;
  // if c { if b0 { v <- b0 && b1 } }: c is fresh, b0 merges.
  CoreStmtList Body;
  Body.push_back(CoreStmt::assign(
      "v", Bool,
      CoreExpr::binary(ast::BinaryOp::And, Atom::var("b0", Bool),
                       Atom::var("b1", Bool), Bool)));
  CoreStmtList Mid;
  Mid.push_back(CoreStmt::ifStmt("b0", std::move(Body)));
  P.Body.push_back(CoreStmt::ifStmt("c", std::move(Mid)));
  EXPECT_EQ(predicted(P), measured(P));
  EXPECT_EQ(measured(P).T, circuit::tCostOfMCX(3));
}

//===----------------------------------------------------------------------===//
// Profile-cache keying: symbols are keyed by first-occurrence index, so
// renamed copies share an entry while aliasing keeps shapes apart. The
// shapes share one program and one model, so a wrongly merged key would
// serve a statement another statement's profile.
//===----------------------------------------------------------------------===//

namespace {

struct AliasingCase {
  CoreProgram Program;
  int64_t DistinctShapes = 0;
};

AliasingCase aliasingProgram() {
  auto Types = std::make_shared<TypeContext>();
  const ast::Type *UInt = Types->uintType();
  const ast::Type *Bool = Types->boolType();
  auto U = [&](Symbol X) { return Atom::var(X, UInt); };
  auto B = [&](Symbol X) { return Atom::var(X, Bool); };
  auto IfC = [](Symbol C, CoreStmtPtr S) {
    CoreStmtList Body;
    Body.push_back(std::move(S));
    return CoreStmt::ifStmt(C, std::move(Body));
  };
  auto And = [&](Symbol V, Symbol L, Symbol R) {
    return CoreStmt::assign(
        V, Bool, CoreExpr::binary(ast::BinaryOp::And, B(L), B(R), Bool));
  };

  AliasingCase Case;
  CoreProgram &P = Case.Program;
  P.Types = Types;
  P.Inputs = {{"x", UInt},  {"y", UInt},  {"z", UInt},  {"u", UInt},
              {"a", UInt},  {"p", UInt},  {"q", UInt},  {"p2", UInt},
              {"q2", UInt}, {"c", Bool},  {"d", Bool},  {"e", Bool}};
  P.OutputVar = "x";
  P.OutputTy = UInt;
  // r1 <- x + x and r2 <- y + z: one adder operand register vs two
  // (shapes 1 and 2); r3 <- u + u is r1's renamed twin.
  P.Body.push_back(CoreStmt::assign(
      "r1", UInt, CoreExpr::binary(ast::BinaryOp::Add, U("x"), U("x"), UInt)));
  P.Body.push_back(CoreStmt::assign(
      "r2", UInt, CoreExpr::binary(ast::BinaryOp::Add, U("y"), U("z"), UInt)));
  P.Body.push_back(CoreStmt::assign(
      "r3", UInt, CoreExpr::binary(ast::BinaryOp::Add, U("u"), U("u"), UInt)));
  // A swap of two distinct names and its renamed twin (shape 3).
  P.Body.push_back(CoreStmt::swap("p", UInt, "q", UInt));
  P.Body.push_back(CoreStmt::swap("p2", UInt, "q2", UInt));
  // if c { v1 <- c && e }: the condition merges with the operand's
  // control (shape 4). if c { v2 <- d && e }: the same primitive shape
  // with c unread, so c is a fresh control (shape 5).
  P.Body.push_back(IfC("c", And("v1", "c", "e")));
  P.Body.push_back(IfC("c", And("v2", "d", "e")));
  // Nested ifs over the same condition are one control: unread (shape
  // 6, a copy under one fresh control) and read (shape 4 again).
  P.Body.push_back(IfC("c", IfC("c", CoreStmt::assign(
                                         "w", UInt, CoreExpr::atom(U("a"))))));
  P.Body.push_back(IfC("c", IfC("c", And("v3", "c", "e"))));
  Case.DistinctShapes = 6;
  return Case;
}

} // namespace

TEST(CostModel, ProfileCacheKeepsAliasingShapesApart) {
  AliasingCase Case = aliasingProgram();
  const CoreProgram &P = Case.Program;
  obs::Registry &Reg = obs::Registry::global();
  obs::Registry::Counter Hits = Reg.counter("costmodel.profile_cache.hits");
  obs::Registry::Counter Misses =
      Reg.counter("costmodel.profile_cache.misses");
  int64_t Hits0 = Hits.value(), Misses0 = Misses.value();

  // One model across all statements, each checked against its own
  // compiled circuit (same inputs, the one statement as the body).
  costmodel::CostModel Model(P, Config);
  for (const auto &S : P.Body) {
    CoreProgram One;
    One.Types = P.Types;
    One.Inputs = P.Inputs;
    One.OutputVar = P.OutputVar;
    One.OutputTy = P.OutputTy;
    One.Body.push_back(S->clone());
    EXPECT_EQ(Model.analyzeStmt(*S, 0), measured(One)) << S->str();
  }
  EXPECT_EQ(Misses.value() - Misses0, Case.DistinctShapes);
  EXPECT_EQ(Hits.value() - Hits0,
            static_cast<int64_t>(P.Body.size()) - Case.DistinctShapes);

  // The merged condition keeps the And a Toffoli; the unread one makes
  // it a 3-control MCX — the two profiles must not be confused.
  EXPECT_EQ(Model.analyzeStmt(*P.Body[5], 0).T, circuit::tCostOfMCX(2));
  EXPECT_EQ(Model.analyzeStmt(*P.Body[6], 0).T, circuit::tCostOfMCX(3));
  EXPECT_EQ(predicted(P), measured(P));
}

TEST(CostModel, MemoizedTFollowsTheExtraControlCount) {
  // The model memoizes T per (cached shape, fresh extra controls). One
  // shape asked for under 0, 3, 1, 3, 0 extra controls on one model must
  // give what a fresh profile recomputes for that count each time — a
  // memo keyed on the shape alone would repeat the first answer.
  AliasingCase Case = aliasingProgram();
  const CoreProgram &P = Case.Program;
  const CoreStmt &Adder = *P.Body[1]; // r2 <- y + z
  circuit::PrimitiveProfile Profile = circuit::profilePrimitive(
      Adder, *P.Types, Config, circuit::cellBitsFor(P, Config));
  ASSERT_NE(Profile.tComplexityUnder(0), Profile.tComplexityUnder(3));
  costmodel::CostModel Model(P, Config);
  for (unsigned Extra : {0u, 3u, 1u, 3u, 0u}) {
    SCOPED_TRACE(std::to_string(Extra) + " extra controls");
    costmodel::Cost C = Model.analyzeStmt(Adder, Extra);
    EXPECT_EQ(C.T, Profile.tComplexityUnder(Extra));
    EXPECT_EQ(C.MCX, Profile.totalGates());
    EXPECT_EQ(C, costmodel::CostModel(P, Config).analyzeStmt(Adder, Extra));
  }
}
