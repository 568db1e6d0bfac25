#include "costmodel/CostModel.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace spire::ir;

namespace spire::costmodel {

namespace {

/// Appends a raw little-endian value to a packed signature key.
template <typename T> void packInto(std::string &Key, T Value) {
  char Bytes[sizeof(T)];
  std::memcpy(Bytes, &Value, sizeof(T));
  Key.append(Bytes, sizeof(T));
}

/// Appends `Sym` as the index of its first occurrence in the key being
/// built (0 for the empty symbol), numbering it on first sight.
void packSymbol(std::string &Key, std::vector<Symbol> &Seen, Symbol Sym) {
  uint32_t Index = 0;
  if (!Sym.empty()) {
    auto It = std::find(Seen.begin(), Seen.end(), Sym);
    Index = static_cast<uint32_t>(It - Seen.begin()) + 1;
    if (It == Seen.end())
      Seen.push_back(Sym);
  }
  packInto<uint32_t>(Key, Index);
}

void packAtom(std::string &Key, std::vector<Symbol> &Seen, const Atom &A) {
  packInto<uint8_t>(Key, static_cast<uint8_t>(A.K));
  if (A.isVar())
    packSymbol(Key, Seen, A.Var);
  else
    packInto<uint64_t>(Key, A.ConstBits);
  packInto<uint8_t>(Key, A.IsAllocConst ? 1 : 0);
  packInto(Key, A.Ty);
}

/// Writes into `Key` the shape signature of primitive `S` wrapped in
/// if-statements over `Wrap` (outermost first), using `Seen` as scratch.
///
/// Every field profilePrimitive reads is packed — statement and
/// expression kinds, operators, projection index, constants, and operand
/// types (interned, so the pointer names the type, and with the model's
/// fixed word size it fixes every width) — except symbol spellings: each
/// symbol becomes the index of its first occurrence in the key.
///
/// That is sound because a profile holds only the per-gate control
/// counts of the primitive compiled on fresh registers. Two statements
/// with equal keys differ by a one-to-one renaming of their symbols; the
/// emitter gives the renamed operands registers of the same widths
/// (perhaps in another order, as it allocates by symbol id) and emits
/// the same gates up to a relabeling of qubits, so each gate keeps its
/// number of controls. Names matter only through aliasing — `x + x`
/// reads one register where `y + z` reads two, and an if-condition the
/// primitive reads merges with that operand's control — and the indices
/// keep exactly that: `x + x` packs (1, 1), `y + z` packs (1, 2), and a
/// wrapped condition shares its index with the operand it aliases.
/// Recursion inlining gives every instance fresh names for the same few
/// shapes, so the copies share entries and misses stay constant in the
/// program size.
void signatureOf(std::string &Key, std::vector<Symbol> &Seen,
                 const std::vector<Symbol> &Wrap, const CoreStmt &S) {
  Key.clear();
  Seen.clear();
  for (Symbol C : Wrap) {
    packInto<uint8_t>(Key, static_cast<uint8_t>(CoreStmt::Kind::If));
    packSymbol(Key, Seen, C);
  }
  packInto<uint8_t>(Key, static_cast<uint8_t>(S.K));
  packSymbol(Key, Seen, S.Name);
  packSymbol(Key, Seen, S.Name2);
  packInto(Key, S.Ty);
  packInto(Key, S.Ty2);
  if (S.K == CoreStmt::Kind::Assign || S.K == CoreStmt::Kind::UnAssign) {
    const CoreExpr &E = S.E;
    packInto<uint8_t>(Key, static_cast<uint8_t>(E.K));
    packInto<uint8_t>(Key, static_cast<uint8_t>(E.UOp));
    packInto<uint8_t>(Key, static_cast<uint8_t>(E.BOp));
    packInto<uint32_t>(Key, E.ProjIndex);
    packAtom(Key, Seen, E.A);
    if (E.K == CoreExpr::Kind::Pair || E.K == CoreExpr::Kind::Binary)
      packAtom(Key, Seen, E.B);
    packInto(Key, E.Ty);
  }
}

/// Whether primitive `S` reads or writes `Var`.
bool touches(const CoreStmt &S, Symbol Var) {
  if (S.Name == Var || S.Name2 == Var)
    return true;
  if (S.K != CoreStmt::Kind::Assign && S.K != CoreStmt::Kind::UnAssign)
    return false;
  const CoreExpr &E = S.E;
  if (E.A.isVar() && E.A.Var == Var)
    return true;
  return (E.K == CoreExpr::Kind::Pair || E.K == CoreExpr::Kind::Binary) &&
         E.B.isVar() && E.B.Var == Var;
}

} // namespace

CostModel::ProfileEntry &
CostModel::profileFor(const CoreStmt &S,
                      const std::vector<Symbol> &Wrap) const {
  // Hoisted handles: one registry lookup per process, one relaxed
  // fetch_add per probe. These are the ROADMAP item-2 cache counters —
  // the daemon's artifact cache will report hit rates the same way.
  static obs::Registry::Counter Hits =
      obs::Registry::global().counter("costmodel.profile_cache.hits");
  static obs::Registry::Counter Misses =
      obs::Registry::global().counter("costmodel.profile_cache.misses");
  signatureOf(Key, KeySyms, Wrap, S);
  auto It = Cache.find(Key);
  if (It != Cache.end()) {
    ++Hits;
    return It->second;
  }
  ++Misses;
  // Build if c1 { if c2 { ... S } } and profile the whole nest so
  // control merging is exact.
  CoreStmtPtr Wrapped;
  if (!Wrap.empty()) {
    Wrapped = S.clone();
    const ast::Type *Bool = Types.boolType();
    for (auto C = Wrap.rbegin(); C != Wrap.rend(); ++C) {
      CoreStmtList Body;
      Body.push_back(std::move(Wrapped));
      Wrapped = CoreStmt::ifStmt(*C, std::move(Body));
      Wrapped->Ty = Bool; // Lets the profiler allocate the condition.
    }
  }
  const CoreStmt &Profiled = Wrapped ? *Wrapped : S;
  return Cache
      .emplace(Key, ProfileEntry{circuit::profilePrimitive(
                                     Profiled, Types, Config, CellBits),
                                 {}})
      .first->second;
}

Cost CostModel::primitiveCost(const CoreStmt &S,
                              const std::vector<Symbol> &Conds) const {
  // Distinct enclosing conditions not read by the primitive each add
  // one fresh control to every gate; conditions the primitive reads
  // merge with the existing control on that variable's qubit, so they
  // are accounted for by profiling an explicit if-wrapper. Nested ifs
  // over the same variable contribute a single control (the compiler
  // emits a deduplicated control list), so only a condition's first
  // occurrence on the stack counts.
  Coinciding.clear();
  unsigned Fresh = 0;
  for (auto C = Conds.begin(); C != Conds.end(); ++C) {
    if (std::find(Conds.begin(), C, *C) != C)
      continue;
    if (touches(S, *C))
      Coinciding.push_back(*C);
    else
      ++Fresh;
  }
  ProfileEntry &P = profileFor(S, Coinciding);
  if (Fresh >= P.TUnder.size())
    P.TUnder.resize(Fresh + 1, -1);
  int64_t &T = P.TUnder[Fresh];
  if (T < 0)
    T = P.Profile.tComplexityUnder(Fresh);
  return {P.Profile.totalGates(), T};
}

Cost CostModel::analyzeStmtUnder(const CoreStmt &S,
                                 std::vector<Symbol> &Conds) const {
  // C_MCX / C_T by structural walk (header comment): an explicit stack
  // instead of recursion, with a per-item multiplier carrying the
  // with-expansion factor (with { s1 } do { s2 } costs 2*C(s1) + C(s2),
  // since the block expands to s1; s2; I[s1] and reversal preserves
  // gate counts statement by statement).
  Cost Total;
  Work.clear();
  Work.push_back({&S, 1, false});
  while (!Work.empty()) {
    CostItem Item = Work.back();
    Work.pop_back();
    if (Item.PopCond) {
      Conds.pop_back();
      continue;
    }
    const CoreStmt &Cur = *Item.S;
    switch (Cur.K) {
    case CoreStmt::Kind::Skip:
      break;

    case CoreStmt::Kind::If:
      // The added control bit is modeled by pushing the condition onto
      // the enclosing stack until the body's statements are consumed.
      Conds.push_back(Cur.Name);
      Work.push_back({nullptr, 0, true});
      for (auto It = Cur.Body.rbegin(); It != Cur.Body.rend(); ++It)
        Work.push_back({It->get(), Item.Mult, false});
      break;

    case CoreStmt::Kind::With:
      // Queue do-body first so the with-body pops (and profiles) first,
      // matching the recursive evaluation order.
      for (auto It = Cur.DoBody.rbegin(); It != Cur.DoBody.rend(); ++It)
        Work.push_back({It->get(), Item.Mult, false});
      for (auto It = Cur.Body.rbegin(); It != Cur.Body.rend(); ++It)
        Work.push_back({It->get(), Item.Mult * 2, false});
      break;

    default: {
      Cost C = primitiveCost(Cur, Conds);
      Total.MCX += C.MCX * Item.Mult;
      Total.T += C.T * Item.Mult;
      break;
    }
    }
  }
  return Total;
}

Cost CostModel::analyzeStmtsUnder(const CoreStmtList &Stmts,
                                  std::vector<Symbol> &Conds) const {
  Cost Total;
  for (const auto &S : Stmts)
    Total += analyzeStmtUnder(*S, Conds);
  return Total;
}

Cost CostModel::analyzeStmt(const CoreStmt &S, unsigned Depth) const {
  // Synthetic condition names: IR variable names never contain spaces,
  // so these can never coincide with a variable the statement reads.
  std::vector<Symbol> Conds;
  for (unsigned I = 0; I != Depth; ++I)
    Conds.push_back(Symbol(" cond" + std::to_string(I)));
  return analyzeStmtUnder(S, Conds);
}

Cost CostModel::analyzeStmts(const CoreStmtList &Stmts,
                             unsigned Depth) const {
  std::vector<Symbol> Conds;
  for (unsigned I = 0; I != Depth; ++I)
    Conds.push_back(Symbol(" cond" + std::to_string(I)));
  return analyzeStmtsUnder(Stmts, Conds);
}

Cost analyzeProgram(const CoreProgram &Program,
                    const circuit::TargetConfig &Config) {
  CostModel Model(Program, Config);
  return Model.analyze(Program);
}

} // namespace spire::costmodel
