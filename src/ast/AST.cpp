#include "ast/AST.h"

#include <cassert>

namespace spire::ast {

//===----------------------------------------------------------------------===//
// SizeExpr
//===----------------------------------------------------------------------===//

std::unique_ptr<SizeExpr> SizeExpr::literal(int64_t V) {
  auto E = std::make_unique<SizeExpr>();
  E->K = Kind::Literal;
  E->Value = V;
  return E;
}

std::unique_ptr<SizeExpr> SizeExpr::param(std::string Name) {
  auto E = std::make_unique<SizeExpr>();
  E->K = Kind::Param;
  E->Param = std::move(Name);
  return E;
}

std::unique_ptr<SizeExpr> SizeExpr::binary(Kind K,
                                           std::unique_ptr<SizeExpr> L,
                                           std::unique_ptr<SizeExpr> R) {
  assert((K == Kind::Add || K == Kind::Sub) && "not a binary size operator");
  auto E = std::make_unique<SizeExpr>();
  E->K = K;
  E->LHS = std::move(L);
  E->RHS = std::move(R);
  return E;
}

int64_t SizeExpr::evaluate(const std::string &ParamName,
                           int64_t ParamValue) const {
  switch (K) {
  case Kind::Literal:
    return Value;
  case Kind::Param:
    assert(Param == ParamName && "unbound size parameter");
    return ParamValue;
  case Kind::Add:
    return LHS->evaluate(ParamName, ParamValue) +
           RHS->evaluate(ParamName, ParamValue);
  case Kind::Sub:
    return LHS->evaluate(ParamName, ParamValue) -
           RHS->evaluate(ParamName, ParamValue);
  }
  return 0;
}

std::unique_ptr<SizeExpr> SizeExpr::clone() const {
  auto E = std::make_unique<SizeExpr>();
  E->K = K;
  E->Value = Value;
  E->Param = Param;
  if (LHS)
    E->LHS = LHS->clone();
  if (RHS)
    E->RHS = RHS->clone();
  return E;
}

std::string SizeExpr::str() const {
  switch (K) {
  case Kind::Literal:
    return std::to_string(Value);
  case Kind::Param:
    return Param;
  case Kind::Add:
    return LHS->str() + "+" + RHS->str();
  case Kind::Sub:
    return LHS->str() + "-" + RHS->str();
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Expr
//===----------------------------------------------------------------------===//

const char *spelling(UnaryOp Op) {
  switch (Op) {
  case UnaryOp::Not:
    return "not";
  case UnaryOp::Test:
    return "test";
  }
  return "?";
}

const char *spelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::And:
    return "&&";
  case BinaryOp::Or:
    return "||";
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::Lt:
    return "<";
  }
  return "?";
}

std::unique_ptr<Expr> Expr::clone() const {
  auto E = std::make_unique<Expr>(K, Loc);
  E->Name = Name;
  E->UIntValue = UIntValue;
  E->BoolValue = BoolValue;
  E->Ty = Ty;
  E->TypeArg = TypeArg;
  E->ProjIndex = ProjIndex;
  E->UOp = UOp;
  E->BOp = BOp;
  for (const auto &A : Args)
    E->Args.push_back(A->clone());
  if (SizeArg)
    E->SizeArg = SizeArg->clone();
  return E;
}

std::string Expr::str() const {
  switch (K) {
  case Kind::Var:
    return Name;
  case Kind::UIntLit:
    return std::to_string(UIntValue);
  case Kind::BoolLit:
    return BoolValue ? "true" : "false";
  case Kind::UnitLit:
    return "()";
  case Kind::NullLit:
    return "null";
  case Kind::Default:
    return "default<" + (TypeArg ? TypeArg->str() : std::string("?")) + ">";
  case Kind::AllocCell:
    return "alloc<" + (TypeArg ? TypeArg->str() : std::string("?")) + ">";
  case Kind::Tuple:
    return "(" + Args[0]->str() + ", " + Args[1]->str() + ")";
  case Kind::Proj:
    return Args[0]->str() + "." + std::to_string(ProjIndex);
  case Kind::Unary:
    return std::string(spelling(UOp)) + " " + Args[0]->str();
  case Kind::Binary:
    return Args[0]->str() + " " + spelling(BOp) + " " + Args[1]->str();
  case Kind::Call: {
    std::string Out = Name;
    if (SizeArg)
      Out += "[" + SizeArg->str() + "]";
    Out += "(";
    for (size_t I = 0; I != Args.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Args[I]->str();
    }
    return Out + ")";
  }
  }
  return "?";
}

std::unique_ptr<Expr> Expr::var(std::string Name, SourceLoc Loc) {
  auto E = std::make_unique<Expr>(Kind::Var, Loc);
  E->Name = std::move(Name);
  return E;
}

std::unique_ptr<Expr> Expr::uintLit(uint64_t V) {
  auto E = std::make_unique<Expr>(Kind::UIntLit);
  E->UIntValue = V;
  return E;
}

std::unique_ptr<Expr> Expr::boolLit(bool V) {
  auto E = std::make_unique<Expr>(Kind::BoolLit);
  E->BoolValue = V;
  return E;
}

std::unique_ptr<Expr> Expr::unitLit() {
  return std::make_unique<Expr>(Kind::UnitLit);
}

std::unique_ptr<Expr> Expr::nullLit(const Type *Ty) {
  auto E = std::make_unique<Expr>(Kind::NullLit);
  E->Ty = Ty;
  return E;
}

std::unique_ptr<Expr> Expr::defaultOf(const Type *Ty) {
  auto E = std::make_unique<Expr>(Kind::Default);
  E->TypeArg = Ty;
  return E;
}

std::unique_ptr<Expr> Expr::allocCell(const Type *Ty) {
  auto E = std::make_unique<Expr>(Kind::AllocCell);
  E->TypeArg = Ty;
  return E;
}

std::unique_ptr<Expr> Expr::tuple(std::unique_ptr<Expr> A,
                                  std::unique_ptr<Expr> B) {
  auto E = std::make_unique<Expr>(Kind::Tuple);
  E->Args.push_back(std::move(A));
  E->Args.push_back(std::move(B));
  return E;
}

std::unique_ptr<Expr> Expr::proj(std::unique_ptr<Expr> Base, unsigned Idx) {
  assert((Idx == 1 || Idx == 2) && "projection index must be 1 or 2");
  auto E = std::make_unique<Expr>(Kind::Proj);
  E->Args.push_back(std::move(Base));
  E->ProjIndex = Idx;
  return E;
}

std::unique_ptr<Expr> Expr::unary(UnaryOp Op, std::unique_ptr<Expr> A) {
  auto E = std::make_unique<Expr>(Kind::Unary);
  E->UOp = Op;
  E->Args.push_back(std::move(A));
  return E;
}

std::unique_ptr<Expr> Expr::binary(BinaryOp Op, std::unique_ptr<Expr> A,
                                   std::unique_ptr<Expr> B) {
  auto E = std::make_unique<Expr>(Kind::Binary);
  E->BOp = Op;
  E->Args.push_back(std::move(A));
  E->Args.push_back(std::move(B));
  return E;
}

//===----------------------------------------------------------------------===//
// Stmt
//===----------------------------------------------------------------------===//

std::unique_ptr<Stmt> Stmt::clone() const {
  auto S = std::make_unique<Stmt>(K, Loc);
  S->Name = Name;
  S->Name2 = Name2;
  if (E)
    S->E = E->clone();
  S->Body = cloneStmts(Body);
  S->ElseBody = cloneStmts(ElseBody);
  return S;
}

static std::string indentString(unsigned Indent) {
  return std::string(Indent * 2, ' ');
}

std::string Stmt::str(unsigned Indent) const {
  std::string Pad = indentString(Indent);
  switch (K) {
  case Kind::Let:
    return Pad + "let " + Name + " <- " + E->str() + ";\n";
  case Kind::UnLet:
    return Pad + "let " + Name + " -> " + E->str() + ";\n";
  case Kind::Swap:
    return Pad + Name + " <-> " + Name2 + ";\n";
  case Kind::MemSwap:
    return Pad + "*" + Name + " <-> " + Name2 + ";\n";
  case Kind::If: {
    std::string Out = Pad + "if " + E->str() + " {\n" +
                      strStmts(Body, Indent + 1) + Pad + "}";
    if (!ElseBody.empty())
      Out += " else {\n" + strStmts(ElseBody, Indent + 1) + Pad + "}";
    return Out + "\n";
  }
  case Kind::With:
    return Pad + "with {\n" + strStmts(Body, Indent + 1) + Pad + "} do {\n" +
           strStmts(ElseBody, Indent + 1) + Pad + "}\n";
  case Kind::Hadamard:
    return Pad + "h(" + Name + ");\n";
  case Kind::Skip:
    return Pad + "skip;\n";
  }
  return Pad + "?\n";
}

std::unique_ptr<Stmt> Stmt::let(std::string X, std::unique_ptr<Expr> E) {
  auto S = std::make_unique<Stmt>(Kind::Let);
  S->Name = std::move(X);
  S->E = std::move(E);
  return S;
}

std::unique_ptr<Stmt> Stmt::unlet(std::string X, std::unique_ptr<Expr> E) {
  auto S = std::make_unique<Stmt>(Kind::UnLet);
  S->Name = std::move(X);
  S->E = std::move(E);
  return S;
}

std::unique_ptr<Stmt> Stmt::swap(std::string A, std::string B) {
  auto S = std::make_unique<Stmt>(Kind::Swap);
  S->Name = std::move(A);
  S->Name2 = std::move(B);
  return S;
}

std::unique_ptr<Stmt> Stmt::memSwap(std::string Ptr, std::string Val) {
  auto S = std::make_unique<Stmt>(Kind::MemSwap);
  S->Name = std::move(Ptr);
  S->Name2 = std::move(Val);
  return S;
}

std::unique_ptr<Stmt> Stmt::ifStmt(std::unique_ptr<Expr> Cond, StmtList Then,
                                   StmtList Else) {
  auto S = std::make_unique<Stmt>(Kind::If);
  S->E = std::move(Cond);
  S->Body = std::move(Then);
  S->ElseBody = std::move(Else);
  return S;
}

std::unique_ptr<Stmt> Stmt::with(StmtList WithBody, StmtList DoBody) {
  auto S = std::make_unique<Stmt>(Kind::With);
  S->Body = std::move(WithBody);
  S->ElseBody = std::move(DoBody);
  return S;
}

std::unique_ptr<Stmt> Stmt::hadamard(std::string X) {
  auto S = std::make_unique<Stmt>(Kind::Hadamard);
  S->Name = std::move(X);
  return S;
}

std::unique_ptr<Stmt> Stmt::skip() {
  return std::make_unique<Stmt>(Kind::Skip);
}

StmtList cloneStmts(const StmtList &Stmts) {
  StmtList Out;
  Out.reserve(Stmts.size());
  for (const auto &S : Stmts)
    Out.push_back(S->clone());
  return Out;
}

std::string strStmts(const StmtList &Stmts, unsigned Indent) {
  std::string Out;
  for (const auto &S : Stmts)
    Out += S->str(Indent);
  return Out;
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

std::string FunDecl::str() const {
  std::string Out = "fun " + Name;
  if (!SizeParam.empty())
    Out += "[" + SizeParam + "]";
  Out += "(";
  for (size_t I = 0; I != Params.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Params[I].first + ": " + Params[I].second->str();
  }
  Out += ")";
  if (ReturnTy)
    Out += " -> " + ReturnTy->str();
  Out += " {\n" + strStmts(Body, 1);
  Out += "  return " + ReturnVar + ";\n}\n";
  return Out;
}

const FunDecl *Program::findFunction(const std::string &Name) const {
  for (const FunDecl &F : Functions)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

std::string Program::str() const {
  std::string Out;
  for (const auto &[Name, Ty] : TypeDecls)
    Out += "type " + Name + " = " + Ty->str() + ";\n";
  for (const FunDecl &F : Functions)
    Out += F.str();
  return Out;
}

} // namespace spire::ast
