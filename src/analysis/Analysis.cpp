#include "analysis/Analysis.h"

#include "circuit/Netlist.h"
#include "support/Governor.h"
#include "support/SymbolMap.h"

#include <algorithm>
#include <cassert>

using namespace spire::ir;
using namespace spire::circuit;

namespace spire::analysis {

//===----------------------------------------------------------------------===//
// Violations and reports
//===----------------------------------------------------------------------===//

std::string Violation::str() const {
  std::string Out = Checker;
  Out += ": ";
  if (!Where.empty()) {
    Out += Where;
    Out += ": ";
  }
  Out += Message;
  return Out;
}

std::string VerifyReport::str() const {
  std::string Out;
  for (const Violation &V : Violations) {
    Out += V.str();
    Out += '\n';
  }
  if (Truncated)
    Out += "... further violations suppressed\n";
  return Out;
}

void VerifyReport::reportTo(support::DiagnosticEngine &Diags,
                            const char *Context) const {
  for (const Violation &V : Violations)
    Diags.error(std::string(Context) + ": " + V.str());
  if (Truncated)
    Diags.note(support::SourceLoc(),
               std::string(Context) + ": further violations suppressed");
}

void VerifyReport::merge(VerifyReport Other) {
  Violations.insert(Violations.end(),
                    std::make_move_iterator(Other.Violations.begin()),
                    std::make_move_iterator(Other.Violations.end()));
  Truncated = Truncated || Other.Truncated;
}

bool VerifyReport::has(const char *Checker) const {
  for (const Violation &V : Violations)
    if (std::string_view(V.Checker) == Checker)
      return true;
  return false;
}

namespace {

/// Shared capped-append helper for all three checkers.
class Reporter {
public:
  explicit Reporter(VerifyReport &Report, const char *Checker)
      : Report(Report), Checker(Checker) {}

  void add(std::string Where, std::string Message) {
    if (Report.Violations.size() >= VerifyReport::MaxViolations) {
      Report.Truncated = true;
      return;
    }
    Report.Violations.push_back(
        {Checker, std::move(Where), std::move(Message)});
  }

private:
  VerifyReport &Report;
  const char *Checker;
};

//===----------------------------------------------------------------------===//
// IR verification
//===----------------------------------------------------------------------===//

/// Walks a lowered program on an explicit worklist, simulating exactly
/// the declaration bookkeeping the circuit backend performs (Vars map
/// with per-variable re-declaration counts; if-bodies and both legs of
/// a with-block are visited unconditionally, matching static emission),
/// so every violation reported here is an assertion the emitter would
/// have tripped — and silence means it cannot.
class IrVerifier {
public:
  IrVerifier(const CoreProgram &P, const TargetConfig &Config,
             VerifyReport &Report)
      : P(P), Config(Config), Out(Report, "ir") {}

  void run() {
    if (!P.Types) {
      Out.add("program", "missing type context");
      return;
    }
    for (const auto &[Name, Ty] : P.Inputs) {
      if (Name.empty()) {
        Out.add("inputs", "input with a dangling (empty) symbol");
        continue;
      }
      if (!Ty) {
        Out.add("inputs", "input '" + Name.str() + "' has no type");
        continue;
      }
      if (!Live.emplace(Name, VarState{Ty, 0, /*IsInput=*/true}).second)
        Out.add("inputs", "duplicate input '" + Name.str() + "'");
    }

    walk();

    if (P.OutputVar.empty())
      Out.add("program", "program has no output variable");
    else if (!isLive(P.OutputVar))
      Out.add("program", "output variable '" + P.OutputVar.str() +
                             "' is not live at program end");
  }

private:
  /// Mirror of the backend's VarInfo: inputs enter live with Decl 0 and
  /// are never erased by a sole un-assignment (matching the emitter's
  /// erase-on-Decl==0 rule); locals die when their count returns to 0.
  struct VarState {
    const Type *Ty = nullptr;
    int64_t Decl = 0;
    bool IsInput = false;
  };

  struct Frame {
    const CoreStmtList *List;
    size_t Pos;
    bool Rev;
  };

  /// A worklist entry: either a statement-list frame or the deferred
  /// close of an if-condition scope.
  struct Item {
    enum class K : uint8_t { Stmts, PopCond } Kind;
    Frame F{};
    Symbol Cond;
  };

  unsigned widthOf(const Type *Ty) const {
    return P.Types->bitWidth(Ty, Config.WordBits);
  }

  bool isLive(Symbol Name) const { return Live.count(Name) != 0; }

  std::string at() const { return "stmt #" + std::to_string(StmtIndex); }

  /// A short one-line rendering of the statement for the message.
  static std::string snippet(const CoreStmt &S) {
    std::string Str = S.str();
    size_t Eol = Str.find('\n');
    if (Eol != std::string::npos)
      Str.resize(Eol);
    if (Str.size() > 48) {
      Str.resize(48);
      Str += "...";
    }
    return "'" + Str + "'";
  }

  void checkRead(Symbol Name, const CoreStmt &S, const char *Role) {
    if (Name.empty()) {
      Out.add(at(), std::string("dangling (empty) symbol as ") + Role +
                        " in " + snippet(S));
      return;
    }
    if (!isLive(Name))
      Out.add(at(), std::string(Role) + " '" + Name.str() +
                        "' read before definition in " + snippet(S));
  }

  void checkExprReads(const CoreExpr &E, const CoreStmt &S) {
    ExprVars.clear();
    E.appendVars(ExprVars);
    for (Symbol V : ExprVars)
      checkRead(V, S, "operand");
    if (!E.Ty)
      Out.add(at(), "expression without a result type in " + snippet(S));
  }

  /// Reversibility: `x <- e` / `x -> e` with x free in e has no gate
  /// realization (the emitter would place x as both target and control).
  void checkNotSelfReferential(const CoreStmt &S) {
    ExprVars.clear();
    S.E.appendVars(ExprVars);
    for (Symbol V : ExprVars)
      if (V == S.Name) {
        Out.add(at(), "variable '" + S.Name.str() +
                          "' appears free in its own (un-)definition " +
                          snippet(S));
        return;
      }
  }

  /// Modifying a variable while it serves as an enclosing if-condition
  /// would make the emitter target one of its own control wires.
  void checkCondMod(Symbol Name, const CoreStmt &S) {
    auto It = ActiveConds.find(Name);
    if (It != ActiveConds.end() && It->second > 0)
      Out.add(at(), "enclosing if-condition '" + Name.str() +
                        "' modified by " + snippet(S));
  }

  void declare(Symbol Name, const Type *Ty, const CoreStmt &S) {
    auto [It, Inserted] = Live.emplace(Name, VarState{Ty, 1, false});
    if (Inserted)
      return;
    ++It->second.Decl;
    // Re-definition XORs into the existing register, so the widths must
    // agree (type identity is not required: lowering re-declares through
    // aliases freely).
    if (It->second.Ty && Ty && widthOf(It->second.Ty) != widthOf(Ty))
      Out.add(at(), "re-definition of '" + Name.str() +
                        "' changes its register width in " + snippet(S));
  }

  void undeclare(Symbol Name, const CoreStmt &S) {
    auto It = Live.find(Name);
    if (It == Live.end()) {
      Out.add(at(), "un-definition of dead variable '" + Name.str() +
                        "' in " + snippet(S));
      return;
    }
    if (--It->second.Decl == 0 && !It->second.IsInput)
      Live.erase(It);
  }

  void execPrimitive(const CoreStmt &S, bool Rev) {
    switch (S.K) {
    case CoreStmt::Kind::Skip:
      return;

    case CoreStmt::Kind::Assign:
    case CoreStmt::Kind::UnAssign: {
      // Under reversal, I[x <- e] = x -> e and vice versa.
      bool IsAssign = (S.K == CoreStmt::Kind::Assign) != Rev;
      if (S.Name.empty()) {
        Out.add(at(), "dangling (empty) definition target in " + snippet(S));
        return;
      }
      if (!S.Ty) {
        Out.add(at(), "(un-)definition of '" + S.Name.str() +
                          "' carries no type");
        return;
      }
      checkExprReads(S.E, S);
      checkNotSelfReferential(S);
      checkCondMod(S.Name, S);
      if (IsAssign)
        declare(S.Name, S.Ty, S);
      else
        undeclare(S.Name, S);
      return;
    }

    case CoreStmt::Kind::Swap: {
      checkRead(S.Name, S, "swap operand");
      checkRead(S.Name2, S, "swap operand");
      if (!S.Name.empty() && S.Name == S.Name2)
        Out.add(at(), "swap of '" + S.Name.str() + "' with itself");
      else if (S.Ty && S.Ty2 && widthOf(S.Ty) != widthOf(S.Ty2))
        Out.add(at(), "swap operands of different widths in " + snippet(S));
      checkCondMod(S.Name, S);
      checkCondMod(S.Name2, S);
      return;
    }

    case CoreStmt::Kind::MemSwap: {
      checkRead(S.Name, S, "memory-swap pointer");
      checkRead(S.Name2, S, "memory-swap value");
      if (!S.Name.empty() && S.Name == S.Name2)
        Out.add(at(), "memory swap uses '" + S.Name.str() +
                          "' as both pointer and value");
      checkCondMod(S.Name2, S);
      return;
    }

    case CoreStmt::Kind::Hadamard: {
      checkRead(S.Name, S, "Hadamard target");
      if (S.Ty && widthOf(S.Ty) != 1)
        Out.add(at(), "Hadamard of multi-bit variable '" + S.Name.str() +
                          "'");
      checkCondMod(S.Name, S);
      return;
    }

    case CoreStmt::Kind::If:
    case CoreStmt::Kind::With:
      assert(false && "block statement reached execPrimitive");
      return;
    }
  }

  void walk() {
    std::vector<Item> Work;
    Work.push_back({Item::K::Stmts, {&P.Body, 0, false}, Symbol()});

    while (!Work.empty()) {
      Item &Top = Work.back();
      if (Top.Kind == Item::K::PopCond) {
        auto It = ActiveConds.find(Top.Cond);
        if (It != ActiveConds.end() && --It->second == 0)
          ActiveConds.erase(It);
        Work.pop_back();
        continue;
      }
      Frame &F = Top.F;
      if (F.Pos == F.List->size()) {
        Work.pop_back();
        continue;
      }
      const CoreStmt &S =
          F.Rev ? *(*F.List)[F.List->size() - 1 - F.Pos] : *(*F.List)[F.Pos];
      bool Rev = F.Rev;
      ++F.Pos;
      ++StmtIndex;

      switch (S.K) {
      case CoreStmt::Kind::If: {
        // I[if x { s }] = if x { I[s] }: same condition, body reversed.
        checkRead(S.Name, S, "if-condition");
        auto It = Live.find(S.Name);
        if (It != Live.end() && It->second.Ty &&
            widthOf(It->second.Ty) != 1)
          Out.add(at(), "if-condition '" + S.Name.str() +
                            "' is not a single bit");
        if (!S.Name.empty())
          ++ActiveConds[S.Name];
        Work.push_back({Item::K::PopCond, {}, S.Name});
        Work.push_back({Item::K::Stmts, {&S.Body, 0, Rev}, Symbol()});
        break;
      }

      case CoreStmt::Kind::With:
        // Expansion order under Rev=false: body; do; I[body] — and under
        // reversal (I[with{a}do{b}] = with{a}do{I[b]}): a; I[b]; I[a].
        // Either way: body forward, do-body direction-inherited, body
        // reversed — pushed LIFO. The reverse leg re-checks the body's
        // inverse primitives, which is exactly what makes asymmetric
        // do-blocks (consuming a with-temporary without re-creating it)
        // surface as a def-before-use violation here.
        Work.push_back({Item::K::Stmts, {&S.Body, 0, true}, Symbol()});
        Work.push_back({Item::K::Stmts, {&S.DoBody, 0, Rev}, Symbol()});
        Work.push_back({Item::K::Stmts, {&S.Body, 0, false}, Symbol()});
        break;

      default:
        execPrimitive(S, Rev);
        break;
      }
    }
  }

  const CoreProgram &P;
  TargetConfig Config;
  Reporter Out;
  support::SymbolMap<VarState> Live;
  /// Multiset of if-conditions whose bodies are currently open.
  support::SymbolMap<unsigned> ActiveConds;
  std::vector<Symbol> ExprVars;
  size_t StmtIndex = 0;
};

} // namespace

VerifyReport verifyProgram(const CoreProgram &P, const TargetConfig &Config) {
  VerifyReport Report;
  IrVerifier(P, Config, Report).run();
  return Report;
}

//===----------------------------------------------------------------------===//
// Circuit and netlist verification
//===----------------------------------------------------------------------===//

VerifyReport verifyCircuit(const Circuit &C, bool CheckNetlist) {
  VerifyReport Report;
  Reporter Out(Report, "circuit");

  for (size_t I = 0; I != C.Gates.size(); ++I) {
    const Gate &G = C.Gates[I];
    std::string Where = "gate #" + std::to_string(I);
    std::string Bad = checkGateOperands(
        G.Target, G.Controls.begin(), G.Controls.end(), C.NumQubits);
    if (!Bad.empty())
      Out.add(Where, Bad + " in " + G.str());
    // Representation invariant (Gate::normalize): strictly ascending
    // controls — sorted and deduplicated.
    for (size_t J = 1; J < G.Controls.size(); ++J) {
      if (G.Controls[J - 1] > G.Controls[J]) {
        Out.add(Where, "control list is not sorted in " + G.str());
        break;
      }
      if (G.Controls[J - 1] == G.Controls[J]) {
        Out.add(Where, "duplicate control qubit in " + G.str());
        break;
      }
    }
  }

  if (CheckNetlist && Report.ok() && !C.Gates.empty())
    Report.merge(verifyNetlist(Netlist(C)));
  return Report;
}

VerifyReport verifyNetlist(const Netlist &N) {
  VerifyReport Report;
  if (!N.checkIntegrity())
    Reporter(Report, "circuit")
        .add("netlist",
             "link-pool integrity check failed (global/wire sequences "
             "inconsistent over the live nodes)");
  return Report;
}

//===----------------------------------------------------------------------===//
// Affine-parity analysis
//===----------------------------------------------------------------------===//

CleanSpec CleanSpec::allUnknown(unsigned NumQubits) {
  CleanSpec S;
  S.NumQubits = NumQubits;
  S.StartsZero.assign(NumQubits, false);
  S.RequireClean.assign(NumQubits, false);
  return S;
}

CleanSpec CleanSpec::forLayout(const CircuitLayout &Layout,
                               unsigned CircuitQubits) {
  CleanSpec S;
  S.NumQubits = CircuitQubits;
  // Wires past Layout.NumQubits are decomposition/legalization ancillas:
  // they start |0> and must come back clean, like any other ancilla.
  S.StartsZero.assign(CircuitQubits, true);
  S.RequireClean.assign(CircuitQubits, true);

  auto exempt = [&](BitRange R, bool InitiallyLive) {
    for (unsigned I = 0; I != R.Width; ++I) {
      Qubit Q = R.Offset + I;
      if (Q >= CircuitQubits)
        continue;
      if (InitiallyLive)
        S.StartsZero[Q] = false;
      S.RequireClean[Q] = false;
    }
  };

  for (const auto &[Name, R] : Layout.Inputs)
    exempt(R, /*InitiallyLive=*/true);
  if (Layout.HeapCells > 0)
    exempt({Layout.MemBase,
            Layout.HeapCells * Layout.CellBits},
           /*InitiallyLive=*/true);
  for (const BitRange &R : Layout.LiveAtExit)
    exempt(R, /*InitiallyLive=*/false);
  if (Layout.PreparedOneWire != CircuitLayout::NoWire)
    exempt({Layout.PreparedOneWire, 1}, /*InitiallyLive=*/false);
  return S;
}

size_t ParityResult::count(Cleanness C) const {
  size_t N = 0;
  for (Cleanness W : WireExit)
    N += (W == C);
  return N;
}

namespace {

/// The GF(2) affine-parity domain over a circuit's wires. Each wire's
/// abstract value is Top or an affine form: an XOR subset of the
/// initial values of the non-StartsZero wires, plus a constant bit.
/// Rows live in one flat bit-matrix (Wires x Words); a transfer is a
/// word-wise row XOR, so the whole analysis is O(gates * vars/64).
class ParityDomain {
public:
  ParityDomain(unsigned NumQubits, const CleanSpec &Spec)
      : NumQubits(NumQubits) {
    VarOfWire.assign(NumQubits, ~0u);
    unsigned NumVars = 0;
    for (unsigned Q = 0; Q != NumQubits; ++Q) {
      bool Zero = Q < Spec.StartsZero.size() && Spec.StartsZero[Q];
      if (!Zero) {
        VarOfWire[Q] = NumVars++;
        WireOfVar.push_back(Q);
      }
    }
    Words = (NumVars + 63) / 64;
    Rows.assign(static_cast<size_t>(NumQubits) * Words, 0);
    ConstBit.assign(NumQubits, 0);
    Top.assign(NumQubits, 0);
    RowIsZero.assign(NumQubits, 1);
    for (unsigned Q = 0; Q != NumQubits; ++Q)
      if (VarOfWire[Q] != ~0u) {
        row(Q)[VarOfWire[Q] / 64] |= uint64_t(1) << (VarOfWire[Q] % 64);
        RowIsZero[Q] = 0;
      }
  }

  bool isTop(Qubit Q) const { return Top[Q] != 0; }
  /// Wire provably equals `Bit` on every input.
  bool isConst(Qubit Q, unsigned Bit) const {
    return !Top[Q] && RowIsZero[Q] && ConstBit[Q] == Bit;
  }

  void setTop(Qubit Q) { Top[Q] = 1; }

  void flipConst(Qubit Q) {
    if (!Top[Q])
      ConstBit[Q] ^= 1;
  }

  /// Target ^= Source (CNOT transfer). Top is absorbing.
  void xorInto(Qubit Target, Qubit Source) {
    if (Top[Target])
      return;
    if (Top[Source]) {
      Top[Target] = 1;
      return;
    }
    uint64_t *T = row(Target);
    const uint64_t *S = row(Source);
    uint64_t Any = 0;
    for (unsigned W = 0; W != Words; ++W) {
      T[W] ^= S[W];
      Any |= T[W];
    }
    RowIsZero[Target] = Any == 0;
    ConstBit[Target] ^= ConstBit[Source];
  }

  Cleanness exitCleanness(Qubit Q) const {
    if (Top[Q])
      return Cleanness::Unknown;
    if (RowIsZero[Q] && ConstBit[Q] == 0)
      return Cleanness::Clean;
    // Any surviving variable bit means some input sets the wire; a bare
    // constant 1 means every input does.
    return Cleanness::Dirty;
  }

  /// Renders the wire's exit value over initial wire values, e.g.
  /// "q0^q7^1"; "?" for Top.
  std::string render(Qubit Q) const {
    if (Top[Q])
      return "?";
    std::string Out;
    const uint64_t *R = row(Q);
    // Bit-scan the row words (variable order is wire order, so the
    // rendering stays sorted); a whole-wire scan here would make the
    // exit summary quadratic in circuit width.
    for (unsigned W = 0; W != Words; ++W) {
      for (uint64_t Bits = R[W]; Bits; Bits &= Bits - 1) {
        unsigned V = W * 64 + static_cast<unsigned>(__builtin_ctzll(Bits));
        if (!Out.empty())
          Out += '^';
        Out += 'q';
        Out += std::to_string(WireOfVar[V]);
      }
    }
    if (ConstBit[Q]) {
      if (!Out.empty())
        Out += '^';
      Out += '1';
    }
    return Out.empty() ? "0" : Out;
  }

private:
  uint64_t *row(Qubit Q) { return Rows.data() + size_t(Q) * Words; }
  const uint64_t *row(Qubit Q) const {
    return Rows.data() + size_t(Q) * Words;
  }

  unsigned NumQubits = 0;
  unsigned Words = 0;
  std::vector<unsigned> VarOfWire;
  std::vector<unsigned> WireOfVar; ///< Inverse of VarOfWire.
  std::vector<uint64_t> Rows;
  std::vector<uint8_t> ConstBit, Top, RowIsZero;
};

} // namespace

ParityResult analyzeParity(const Circuit &C, const CleanSpec &Spec) {
  ParityResult Result;
  ParityDomain D(C.NumQubits, Spec);

  for (size_t I = 0; I != C.Gates.size(); ++I) {
    // Governor checkpoint at the parity-matrix row ops. The partial
    // result is not trustworthy after a trip; callers must discard it
    // (the pipeline's verify hook checks the governor before merging).
    if (!support::Governor::poll())
      return Result;
    const Gate &G = C.Gates[I];
    if (G.Target >= C.NumQubits)
      continue; // verifyCircuit's problem, not ours.

    // A control provably |0> makes any gate the identity.
    bool Dead = false;
    for (Qubit Ctrl : G.Controls)
      if (Ctrl < C.NumQubits && D.isConst(Ctrl, 0)) {
        Dead = true;
        break;
      }
    // Diagonal phase gates additionally fix |0> targets (up to the
    // global phase, which is unobservable).
    if (!Dead && G.isPhase() && D.isConst(G.Target, 0))
      Dead = true;
    if (Dead) {
      Result.DeadGates.push_back(I);
      continue;
    }

    if (G.isPhase())
      continue; // Diagonal: computational-basis values unchanged.

    if (G.Kind == GateKind::H) {
      Result.NonAffineGates++;
      D.setTop(G.Target);
      continue;
    }

    // X-kind. Controls provably |1> fire unconditionally and drop out;
    // what remains decides the transfer.
    Qubit Effective = 0;
    unsigned NumEffective = 0;
    for (Qubit Ctrl : G.Controls) {
      if (Ctrl < C.NumQubits && D.isConst(Ctrl, 1))
        continue;
      Effective = Ctrl;
      ++NumEffective;
    }
    if (NumEffective == 0) {
      D.flipConst(G.Target); // Plain X.
    } else if (NumEffective == 1) {
      D.xorInto(G.Target, Effective); // Effectively a CNOT.
    } else {
      // A true multi-controlled X computes an AND: outside GF(2)-affine.
      Result.NonAffineGates++;
      D.setTop(G.Target);
    }
  }

  Result.WireExit.resize(C.NumQubits);
  Result.WireParity.resize(C.NumQubits);
  Reporter Out(Result.Report, "parity");
  for (Qubit Q = 0; Q != C.NumQubits; ++Q) {
    Result.WireExit[Q] = D.exitCleanness(Q);
    Result.WireParity[Q] = D.render(Q);
    if (Result.WireExit[Q] == Cleanness::Dirty &&
        Q < Spec.RequireClean.size() && Spec.RequireClean[Q])
      Out.add("wire " + std::to_string(Q),
              "ancilla exits dirty with parity " + Result.WireParity[Q] +
                  " (must return to |0>)");
  }
  return Result;
}

} // namespace spire::analysis
