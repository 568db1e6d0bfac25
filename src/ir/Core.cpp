#include "ir/Core.h"

#include <cassert>

namespace spire::ir {

//===----------------------------------------------------------------------===//
// Atom
//===----------------------------------------------------------------------===//

Atom Atom::var(Symbol Name, const Type *Ty) {
  Atom A;
  A.K = Kind::Var;
  A.Var = Name;
  A.Ty = Ty;
  return A;
}

Atom Atom::constant(uint64_t Bits, const Type *Ty) {
  Atom A;
  A.K = Kind::Const;
  A.ConstBits = Bits;
  A.Ty = Ty;
  return A;
}

Atom Atom::allocConst(uint64_t Address, const Type *Ty) {
  Atom A = constant(Address, Ty);
  A.IsAllocConst = true;
  return A;
}

std::string Atom::str() const {
  if (isVar())
    return Var.str();
  if (Ty && Ty->isBool())
    return ConstBits ? "true" : "false";
  if (Ty && Ty->isPtr())
    return ConstBits == 0 ? "null" : "ptr[" + std::to_string(ConstBits) + "]";
  if (Ty && Ty->isUnit())
    return "()";
  return std::to_string(ConstBits);
}

bool operator==(const Atom &A, const Atom &B) {
  if (A.K != B.K)
    return false;
  if (A.isVar())
    return A.Var == B.Var;
  return A.ConstBits == B.ConstBits;
}

//===----------------------------------------------------------------------===//
// CoreExpr
//===----------------------------------------------------------------------===//

CoreExpr CoreExpr::atom(Atom A) {
  CoreExpr E;
  E.K = Kind::AtomE;
  E.Ty = A.Ty;
  E.A = std::move(A);
  return E;
}

CoreExpr CoreExpr::pair(Atom A, Atom B, const Type *Ty) {
  CoreExpr E;
  E.K = Kind::Pair;
  E.A = std::move(A);
  E.B = std::move(B);
  E.Ty = Ty;
  return E;
}

CoreExpr CoreExpr::proj(Atom A, unsigned Index, const Type *Ty) {
  assert((Index == 1 || Index == 2) && "projection index must be 1 or 2");
  CoreExpr E;
  E.K = Kind::Proj;
  E.A = std::move(A);
  E.ProjIndex = Index;
  E.Ty = Ty;
  return E;
}

CoreExpr CoreExpr::unary(UnaryOp Op, Atom A, const Type *Ty) {
  CoreExpr E;
  E.K = Kind::Unary;
  E.UOp = Op;
  E.A = std::move(A);
  E.Ty = Ty;
  return E;
}

CoreExpr CoreExpr::binary(BinaryOp Op, Atom A, Atom B, const Type *Ty) {
  CoreExpr E;
  E.K = Kind::Binary;
  E.BOp = Op;
  E.A = std::move(A);
  E.B = std::move(B);
  E.Ty = Ty;
  return E;
}

void CoreExpr::appendVars(std::vector<Symbol> &Out) const {
  if (A.isVar())
    Out.push_back(A.Var);
  if ((K == Kind::Pair || K == Kind::Binary) && B.isVar())
    Out.push_back(B.Var);
}

std::string CoreExpr::str() const {
  switch (K) {
  case Kind::AtomE:
    return A.str();
  case Kind::Pair:
    return "(" + A.str() + ", " + B.str() + ")";
  case Kind::Proj:
    return A.str() + "." + std::to_string(ProjIndex);
  case Kind::Unary:
    return std::string(ast::spelling(UOp)) + " " + A.str();
  case Kind::Binary:
    return A.str() + " " + ast::spelling(BOp) + " " + B.str();
  }
  return "?";
}

bool operator==(const CoreExpr &X, const CoreExpr &Y) {
  if (X.K != Y.K)
    return false;
  switch (X.K) {
  case CoreExpr::Kind::AtomE:
    return X.A == Y.A;
  case CoreExpr::Kind::Pair:
    return X.A == Y.A && X.B == Y.B;
  case CoreExpr::Kind::Proj:
    return X.A == Y.A && X.ProjIndex == Y.ProjIndex;
  case CoreExpr::Kind::Unary:
    return X.UOp == Y.UOp && X.A == Y.A;
  case CoreExpr::Kind::Binary:
    return X.BOp == Y.BOp && X.A == Y.A && X.B == Y.B;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// CoreStmt
//===----------------------------------------------------------------------===//

CoreStmt::~CoreStmt() {
  // Drain nested blocks onto an explicit worklist so destruction never
  // recurses through the nesting (see the declaration comment). Each
  // popped statement has its children moved out before its unique_ptr
  // releases it, so the implicit member destructors only ever see empty
  // Body/DoBody lists.
  if (Body.empty() && DoBody.empty())
    return;
  std::vector<CoreStmtPtr> Work;
  auto drain = [&Work](CoreStmtList &L) {
    for (CoreStmtPtr &S : L)
      if (S && !(S->Body.empty() && S->DoBody.empty()))
        Work.push_back(std::move(S));
    L.clear();
  };
  drain(Body);
  drain(DoBody);
  while (!Work.empty()) {
    CoreStmtPtr S = std::move(Work.back());
    Work.pop_back();
    drain(S->Body);
    drain(S->DoBody);
  }
}

namespace {

/// Shared machinery for the deep-copy family (clone and reversal): one
/// explicit worklist of (source, destination, mode) items, so copying
/// depth-N nesting uses O(1) C++ stack.
enum class CopyMode : uint8_t {
  Clone,   ///< Verbatim structural copy.
  Reverse, ///< The derived form I[s] of Section 4.
};

struct CopyItem {
  const CoreStmt *Src;
  CoreStmt *Dst;
  CopyMode M;
};

void copyScalars(const CoreStmt &Src, CoreStmt &Dst) {
  Dst.K = Src.K;
  Dst.Name = Src.Name;
  Dst.Name2 = Src.Name2;
  Dst.Ty = Src.Ty;
  Dst.Ty2 = Src.Ty2;
  Dst.E = Src.E;
}

/// Appends empty children to `Dst` mirroring `Src` and queues the pairs.
/// `Reversed` queues (and lays out) the children in reverse order.
void queueChildren(std::vector<CopyItem> &Work, const CoreStmtList &Src,
                   CoreStmtList &Dst, CopyMode M, bool Reversed) {
  Dst.reserve(Src.size());
  for (size_t I = 0; I != Src.size(); ++I) {
    const CoreStmt *Child =
        Reversed ? Src[Src.size() - 1 - I].get() : Src[I].get();
    Dst.push_back(std::make_unique<CoreStmt>());
    Work.push_back({Child, Dst.back().get(), M});
  }
}

void runCopyMachine(std::vector<CopyItem> &Work) {
  while (!Work.empty()) {
    CopyItem Item = Work.back();
    Work.pop_back();
    const CoreStmt &Src = *Item.Src;
    CoreStmt &Dst = *Item.Dst;
    if (Item.M == CopyMode::Clone) {
      copyScalars(Src, Dst);
      queueChildren(Work, Src.Body, Dst.Body, CopyMode::Clone, false);
      queueChildren(Work, Src.DoBody, Dst.DoBody, CopyMode::Clone, false);
      continue;
    }
    // Reverse: I[x <- e] = x -> e and vice versa; I[if x {s}] =
    // if x {I[s]} with the sequence reversed; I[with{a}do{b}] =
    // with{a}do{I[b]} (the with-block stays forward: (a; b; I[a])^-1 =
    // a; I[b]; I[a]); everything else is self-inverse.
    copyScalars(Src, Dst);
    switch (Src.K) {
    case CoreStmt::Kind::Assign:
      Dst.K = CoreStmt::Kind::UnAssign;
      break;
    case CoreStmt::Kind::UnAssign:
      Dst.K = CoreStmt::Kind::Assign;
      break;
    case CoreStmt::Kind::If:
      queueChildren(Work, Src.Body, Dst.Body, CopyMode::Reverse, true);
      continue;
    case CoreStmt::Kind::With:
      queueChildren(Work, Src.Body, Dst.Body, CopyMode::Clone, false);
      queueChildren(Work, Src.DoBody, Dst.DoBody, CopyMode::Reverse, true);
      continue;
    case CoreStmt::Kind::Skip:
    case CoreStmt::Kind::Swap:
    case CoreStmt::Kind::MemSwap:
    case CoreStmt::Kind::Hadamard:
      break;
    }
  }
}

CoreStmtPtr copyOne(const CoreStmt &S, CopyMode M) {
  auto Root = std::make_unique<CoreStmt>();
  if (S.Body.empty() && S.DoBody.empty()) {
    // Childless statement (the overwhelmingly common case in flat IR):
    // no worklist needed, and reversal of a childless statement only
    // flips the assign kinds.
    copyScalars(S, *Root);
    if (M == CopyMode::Reverse) {
      if (S.K == CoreStmt::Kind::Assign)
        Root->K = CoreStmt::Kind::UnAssign;
      else if (S.K == CoreStmt::Kind::UnAssign)
        Root->K = CoreStmt::Kind::Assign;
    }
    return Root;
  }
  std::vector<CopyItem> Work;
  Work.push_back({&S, Root.get(), M});
  runCopyMachine(Work);
  return Root;
}

} // namespace

CoreStmtPtr CoreStmt::clone() const { return copyOne(*this, CopyMode::Clone); }

CoreStmtList cloneStmts(const CoreStmtList &Stmts) {
  CoreStmtList Out;
  Out.reserve(Stmts.size());
  std::vector<CopyItem> Work;
  for (const auto &S : Stmts) {
    Out.push_back(std::make_unique<CoreStmt>());
    Work.push_back({S.get(), Out.back().get(), CopyMode::Clone});
  }
  runCopyMachine(Work);
  return Out;
}

CoreStmtPtr reverseStmt(const CoreStmt &S) {
  return copyOne(S, CopyMode::Reverse);
}

CoreStmtList reverseStmts(const CoreStmtList &Stmts) {
  CoreStmtList Out;
  Out.reserve(Stmts.size());
  std::vector<CopyItem> Work;
  for (auto It = Stmts.rbegin(); It != Stmts.rend(); ++It) {
    Out.push_back(std::make_unique<CoreStmt>());
    Work.push_back({It->get(), Out.back().get(), CopyMode::Reverse});
  }
  runCopyMachine(Work);
  return Out;
}

//===----------------------------------------------------------------------===//
// Printing (worklist machine; pinned at depth 200k by ir_test)
//===----------------------------------------------------------------------===//

static void appendPad(std::string &Out, unsigned Indent) {
  // Clamp the indentation depth: without a cap, printing IR whose
  // nesting grows with the recursion depth (one with-block per level
  // under const-arg recursion) costs O(depth) pad characters per line —
  // O(depth^2) text overall, hundreds of gigabytes at depth 200k. Levels
  // beyond the clamp all print at the same margin; the text stays
  // unambiguous (blocks are delimited by braces, not indentation).
  constexpr unsigned MaxIndentLevels = 32;
  Out.append(std::min(Indent, MaxIndentLevels) * 2, ' ');
}

namespace {

/// One pending print step: a statement at a phase (blocks print in up to
/// three pieces around their child lists), or a closing delimiter.
struct PrintItem {
  const CoreStmt *S;
  unsigned Indent;
  uint8_t Phase;
};

void pushChildrenToPrint(std::vector<PrintItem> &Work,
                         const CoreStmtList &Stmts, unsigned Indent) {
  for (auto It = Stmts.rbegin(); It != Stmts.rend(); ++It)
    Work.push_back({It->get(), Indent, 0});
}

void runPrintMachine(std::vector<PrintItem> &Work, std::string &Out) {
  while (!Work.empty()) {
    PrintItem Item = Work.back();
    Work.pop_back();
    const CoreStmt &S = *Item.S;
    switch (S.K) {
    case CoreStmt::Kind::Skip:
      appendPad(Out, Item.Indent);
      Out += "skip;\n";
      break;
    case CoreStmt::Kind::Assign:
      appendPad(Out, Item.Indent);
      Out += S.Name.view();
      Out += " <- " + S.E.str() + ";\n";
      break;
    case CoreStmt::Kind::UnAssign:
      appendPad(Out, Item.Indent);
      Out += S.Name.view();
      Out += " -> " + S.E.str() + ";\n";
      break;
    case CoreStmt::Kind::If:
      if (Item.Phase == 0) {
        appendPad(Out, Item.Indent);
        Out += "if ";
        Out += S.Name.view();
        Out += " {\n";
        Work.push_back({&S, Item.Indent, 1});
        pushChildrenToPrint(Work, S.Body, Item.Indent + 1);
      } else {
        appendPad(Out, Item.Indent);
        Out += "}\n";
      }
      break;
    case CoreStmt::Kind::With:
      if (Item.Phase == 0) {
        appendPad(Out, Item.Indent);
        Out += "with {\n";
        Work.push_back({&S, Item.Indent, 1});
        pushChildrenToPrint(Work, S.Body, Item.Indent + 1);
      } else if (Item.Phase == 1) {
        appendPad(Out, Item.Indent);
        Out += "} do {\n";
        Work.push_back({&S, Item.Indent, 2});
        pushChildrenToPrint(Work, S.DoBody, Item.Indent + 1);
      } else {
        appendPad(Out, Item.Indent);
        Out += "}\n";
      }
      break;
    case CoreStmt::Kind::Swap:
      appendPad(Out, Item.Indent);
      Out += S.Name.view();
      Out += " <-> ";
      Out += S.Name2.view();
      Out += ";\n";
      break;
    case CoreStmt::Kind::MemSwap:
      appendPad(Out, Item.Indent);
      Out += "*";
      Out += S.Name.view();
      Out += " <-> ";
      Out += S.Name2.view();
      Out += ";\n";
      break;
    case CoreStmt::Kind::Hadamard:
      appendPad(Out, Item.Indent);
      Out += "H(";
      Out += S.Name.view();
      Out += ");\n";
      break;
    }
  }
}

} // namespace

std::string CoreStmt::str(unsigned Indent) const {
  std::string Out;
  std::vector<PrintItem> Work;
  Work.push_back({this, Indent, 0});
  runPrintMachine(Work, Out);
  return Out;
}

std::string strStmts(const CoreStmtList &Stmts, unsigned Indent) {
  std::string Out;
  std::vector<PrintItem> Work;
  pushChildrenToPrint(Work, Stmts, Indent);
  runPrintMachine(Work, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

CoreStmtPtr CoreStmt::skip() { return std::make_unique<CoreStmt>(); }

CoreStmtPtr CoreStmt::assign(Symbol X, const Type *Ty, CoreExpr E) {
  auto S = std::make_unique<CoreStmt>();
  S->K = Kind::Assign;
  S->Name = X;
  S->Ty = Ty;
  S->E = std::move(E);
  return S;
}

CoreStmtPtr CoreStmt::unassign(Symbol X, const Type *Ty, CoreExpr E) {
  auto S = std::make_unique<CoreStmt>();
  S->K = Kind::UnAssign;
  S->Name = X;
  S->Ty = Ty;
  S->E = std::move(E);
  return S;
}

CoreStmtPtr CoreStmt::ifStmt(Symbol CondVar, CoreStmtList Body) {
  auto S = std::make_unique<CoreStmt>();
  S->K = Kind::If;
  S->Name = CondVar;
  S->Body = std::move(Body);
  return S;
}

CoreStmtPtr CoreStmt::with(CoreStmtList Body, CoreStmtList DoBody) {
  auto S = std::make_unique<CoreStmt>();
  S->K = Kind::With;
  S->Body = std::move(Body);
  S->DoBody = std::move(DoBody);
  return S;
}

CoreStmtPtr CoreStmt::swap(Symbol A, const Type *TyA, Symbol B,
                           const Type *TyB) {
  auto S = std::make_unique<CoreStmt>();
  S->K = Kind::Swap;
  S->Name = A;
  S->Ty = TyA;
  S->Name2 = B;
  S->Ty2 = TyB;
  return S;
}

CoreStmtPtr CoreStmt::memSwap(Symbol Ptr, const Type *PtrTy, Symbol Val,
                              const Type *ValTy) {
  auto S = std::make_unique<CoreStmt>();
  S->K = Kind::MemSwap;
  S->Name = Ptr;
  S->Ty = PtrTy;
  S->Name2 = Val;
  S->Ty2 = ValTy;
  return S;
}

CoreStmtPtr CoreStmt::hadamard(Symbol X, const Type *Ty) {
  auto S = std::make_unique<CoreStmt>();
  S->K = Kind::Hadamard;
  S->Name = X;
  S->Ty = Ty;
  return S;
}

//===----------------------------------------------------------------------===//
// Structural equality (worklist; deep nesting safe)
//===----------------------------------------------------------------------===//

bool stmtEquals(const CoreStmt &A, const CoreStmt &B) {
  std::vector<std::pair<const CoreStmt *, const CoreStmt *>> Work;
  Work.push_back({&A, &B});
  while (!Work.empty()) {
    auto [X, Y] = Work.back();
    Work.pop_back();
    if (X->K != Y->K || X->Name != Y->Name || X->Name2 != Y->Name2)
      return false;
    if ((X->K == CoreStmt::Kind::Assign ||
         X->K == CoreStmt::Kind::UnAssign) &&
        !(X->E == Y->E))
      return false;
    if (X->Body.size() != Y->Body.size() ||
        X->DoBody.size() != Y->DoBody.size())
      return false;
    for (size_t I = 0; I != X->Body.size(); ++I)
      Work.push_back({X->Body[I].get(), Y->Body[I].get()});
    for (size_t I = 0; I != X->DoBody.size(); ++I)
      Work.push_back({X->DoBody[I].get(), Y->DoBody[I].get()});
  }
  return true;
}

bool stmtListEquals(const CoreStmtList &A, const CoreStmtList &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (!stmtEquals(*A[I], *B[I]))
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Analyses (worklist walks; one sort+unique per query)
//===----------------------------------------------------------------------===//

namespace {

/// Walks `Stmts` without recursion, appending to `Acc` per statement via
/// `Visit(const CoreStmt &, std::vector<Symbol> &)`.
template <typename VisitFn>
SymbolSet collectOverStmts(const CoreStmtList &Stmts, VisitFn Visit) {
  std::vector<Symbol> Acc;
  std::vector<const CoreStmt *> Work;
  Work.reserve(Stmts.size());
  for (const auto &S : Stmts)
    Work.push_back(S.get());
  while (!Work.empty()) {
    const CoreStmt *S = Work.back();
    Work.pop_back();
    Visit(*S, Acc);
    for (const auto &Sub : S->Body)
      Work.push_back(Sub.get());
    for (const auto &Sub : S->DoBody)
      Work.push_back(Sub.get());
  }
  SymbolSet Out;
  Out.adoptUnsorted(std::move(Acc));
  return Out;
}

} // namespace

SymbolSet modSet(const CoreStmtList &Stmts) {
  return collectOverStmts(Stmts, [](const CoreStmt &S,
                                    std::vector<Symbol> &Acc) {
    switch (S.K) {
    case CoreStmt::Kind::Assign:
    case CoreStmt::Kind::UnAssign:
    case CoreStmt::Kind::Hadamard:
      Acc.push_back(S.Name);
      break;
    case CoreStmt::Kind::Swap:
      Acc.push_back(S.Name);
      Acc.push_back(S.Name2);
      break;
    case CoreStmt::Kind::MemSwap:
      Acc.push_back(S.Name2);
      break;
    case CoreStmt::Kind::Skip:
    case CoreStmt::Kind::If:
    case CoreStmt::Kind::With:
      break; // Blocks contribute through their children.
    }
  });
}

SymbolSet allVars(const CoreStmtList &Stmts) {
  return collectOverStmts(Stmts, [](const CoreStmt &S,
                                    std::vector<Symbol> &Acc) {
    if (!S.Name.empty())
      Acc.push_back(S.Name);
    if (!S.Name2.empty())
      Acc.push_back(S.Name2);
    if (S.K == CoreStmt::Kind::Assign || S.K == CoreStmt::Kind::UnAssign)
      S.E.appendVars(Acc);
  });
}

CoreProgram CoreProgram::cloneShell() const {
  CoreProgram P;
  P.Types = Types;
  P.Inputs = Inputs;
  P.OutputVar = OutputVar;
  P.OutputTy = OutputTy;
  P.NumAllocCells = NumAllocCells;
  P.PointeeTypes = PointeeTypes;
  return P;
}

CoreProgram CoreProgram::clone() const {
  CoreProgram P = cloneShell();
  P.Body = cloneStmts(Body);
  return P;
}

std::string CoreProgram::str() const {
  std::string Out = "program(";
  for (size_t I = 0; I != Inputs.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Inputs[I].first.view();
    Out += ": " + Inputs[I].second->str();
  }
  Out += ") -> ";
  Out += OutputVar.view();
  Out += " {\n" + strStmts(Body, 1) + "}\n";
  return Out;
}

} // namespace spire::ir
