//===----------------------------------------------------------------------===//
///
/// \file
/// Surface abstract syntax of the Tower language, as parsed from source.
///
/// This is the richer "surface" syntax of Section 7: it allows nested
/// expressions, if-else, with-do, function calls with static size
/// arguments (`length[n-1](next, r)`), and `alloc<T>`. The lowering stage
/// (src/lowering) desugars everything to the core IR of Fig. 13.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_AST_AST_H
#define SPIRE_AST_AST_H

#include "ast/Type.h"
#include "support/SourceLoc.h"
#include "support/Symbol.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace spire::ast {

using support::SourceLoc;

//===----------------------------------------------------------------------===//
// Size expressions
//===----------------------------------------------------------------------===//

/// Compile-time integer expressions used as recursion-depth annotations,
/// e.g. the `n-1` in `length[n-1](next, r)`. Evaluated during inlining.
struct SizeExpr {
  enum class Kind { Literal, Param, Add, Sub };
  Kind K = Kind::Literal;
  int64_t Value = 0;          ///< For Literal.
  std::string Param;          ///< For Param.
  std::unique_ptr<SizeExpr> LHS, RHS;

  static std::unique_ptr<SizeExpr> literal(int64_t V);
  static std::unique_ptr<SizeExpr> param(std::string Name);
  static std::unique_ptr<SizeExpr> binary(Kind K, std::unique_ptr<SizeExpr> L,
                                          std::unique_ptr<SizeExpr> R);

  /// Evaluates with the enclosing function's size parameter bound to
  /// `ParamValue`. Asserts that any referenced parameter matches.
  int64_t evaluate(const std::string &ParamName, int64_t ParamValue) const;

  std::unique_ptr<SizeExpr> clone() const;
  std::string str() const;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class UnaryOp { Not, Test };
enum class BinaryOp { And, Or, Add, Sub, Mul, Eq, Ne, Lt };

/// Returns the Tower spelling of an operator ("&&", "+", ...).
const char *spelling(UnaryOp Op);
const char *spelling(BinaryOp Op);

class Expr {
public:
  enum class Kind {
    Var,      ///< x
    UIntLit,  ///< 42
    BoolLit,  ///< true / false
    UnitLit,  ///< ()
    NullLit,  ///< null (pointer type inferred or annotated)
    Default,  ///< default<T>: the all-zero value of T
    AllocCell,///< alloc<T>: a fresh statically-assigned heap cell address
    Tuple,    ///< (e1, e2)
    Proj,     ///< e.1 / e.2
    Unary,    ///< not e, test e
    Binary,   ///< e1 op e2
    Call,     ///< f[size](e1, ..., ek)
  };

  Kind K;
  SourceLoc Loc;

  // Payload (which fields are active depends on K).
  std::string Name;                         ///< Var name / callee name.
  /// Interned form of Name, cached on first use: lowering and sema look
  /// variables up once per reference, and re-hashing the spelling each
  /// time measurably taxes deep-recursion compiles. Value-stable (a
  /// spelling always interns to the same Symbol), so caching is safe
  /// even across clones.
  support::Symbol nameSym() const {
    if (NameSym.empty() && !Name.empty())
      NameSym = support::Symbol(Name);
    return NameSym;
  }
  mutable support::Symbol NameSym;
  uint64_t UIntValue = 0;                   ///< UIntLit.
  bool BoolValue = false;                   ///< BoolLit.
  /// Inferred type, annotated by the type checker; also the optional
  /// pointer-type annotation of a NullLit. The checker may run more than
  /// once over the same AST (the driver pipeline re-checks before
  /// lowering), so annotation must be idempotent: payload types live in
  /// TypeArg, never here.
  const Type *Ty = nullptr;
  /// Default/AllocCell: the parsed <T> argument.
  const Type *TypeArg = nullptr;
  unsigned ProjIndex = 0;                   ///< Proj: 1 or 2.
  UnaryOp UOp = UnaryOp::Not;               ///< Unary.
  BinaryOp BOp = BinaryOp::And;             ///< Binary.
  std::vector<std::unique_ptr<Expr>> Args;  ///< Operands / call arguments.
  std::unique_ptr<SizeExpr> SizeArg;        ///< Call: optional [size].

  explicit Expr(Kind K, SourceLoc Loc = SourceLoc()) : K(K), Loc(Loc) {}

  std::unique_ptr<Expr> clone() const;
  std::string str() const;

  // Convenience factory functions.
  static std::unique_ptr<Expr> var(std::string Name,
                                   SourceLoc Loc = SourceLoc());
  static std::unique_ptr<Expr> uintLit(uint64_t V);
  static std::unique_ptr<Expr> boolLit(bool V);
  static std::unique_ptr<Expr> unitLit();
  static std::unique_ptr<Expr> nullLit(const Type *Ty = nullptr);
  static std::unique_ptr<Expr> defaultOf(const Type *Ty);
  static std::unique_ptr<Expr> allocCell(const Type *Ty);
  static std::unique_ptr<Expr> tuple(std::unique_ptr<Expr> A,
                                     std::unique_ptr<Expr> B);
  static std::unique_ptr<Expr> proj(std::unique_ptr<Expr> Base, unsigned Idx);
  static std::unique_ptr<Expr> unary(UnaryOp Op, std::unique_ptr<Expr> A);
  static std::unique_ptr<Expr> binary(BinaryOp Op, std::unique_ptr<Expr> A,
                                      std::unique_ptr<Expr> B);
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class Stmt;
using StmtList = std::vector<std::unique_ptr<Stmt>>;

class Stmt {
public:
  enum class Kind {
    Let,     ///< let x <- e;
    UnLet,   ///< let x -> e;
    Swap,    ///< x1 <-> x2;
    MemSwap, ///< *x1 <-> x2;
    If,      ///< if e { ... } [else { ... }]
    With,    ///< with { ... } do { ... }
    Hadamard,///< h(x);
    Skip,    ///< skip;
  };

  Kind K;
  SourceLoc Loc;

  std::string Name;                ///< Let/UnLet target, Swap LHS, Hadamard.
  std::string Name2;               ///< Swap/MemSwap RHS variable.
  /// Cached interned names (see Expr::nameSym).
  support::Symbol nameSym() const {
    if (NameSym.empty() && !Name.empty())
      NameSym = support::Symbol(Name);
    return NameSym;
  }
  support::Symbol name2Sym() const {
    if (Name2Sym.empty() && !Name2.empty())
      Name2Sym = support::Symbol(Name2);
    return Name2Sym;
  }
  mutable support::Symbol NameSym, Name2Sym;
  std::unique_ptr<Expr> E;         ///< Let/UnLet RHS, If condition.
  StmtList Body;                   ///< If-then / with-block.
  StmtList ElseBody;               ///< If-else / do-block.

  explicit Stmt(Kind K, SourceLoc Loc = SourceLoc()) : K(K), Loc(Loc) {}

  std::unique_ptr<Stmt> clone() const;
  std::string str(unsigned Indent = 0) const;

  static std::unique_ptr<Stmt> let(std::string X, std::unique_ptr<Expr> E);
  static std::unique_ptr<Stmt> unlet(std::string X, std::unique_ptr<Expr> E);
  static std::unique_ptr<Stmt> swap(std::string A, std::string B);
  static std::unique_ptr<Stmt> memSwap(std::string Ptr, std::string Val);
  static std::unique_ptr<Stmt> ifStmt(std::unique_ptr<Expr> Cond,
                                      StmtList Then, StmtList Else = {});
  static std::unique_ptr<Stmt> with(StmtList WithBody, StmtList DoBody);
  static std::unique_ptr<Stmt> hadamard(std::string X);
  static std::unique_ptr<Stmt> skip();
};

/// Deep-copies a statement list.
StmtList cloneStmts(const StmtList &Stmts);

/// Renders a statement list with the given indentation.
std::string strStmts(const StmtList &Stmts, unsigned Indent = 0);

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// `fun name[szparam](p1: T1, ...) [-> T] { body...; return x; }`
struct FunDecl {
  std::string Name;
  std::string SizeParam; ///< Empty when the function is not size-indexed.
  std::vector<std::pair<std::string, const Type *>> Params;
  /// Optional declared return type; required only when a recursive call's
  /// result binds a fresh variable (otherwise inferred).
  const Type *ReturnTy = nullptr;
  StmtList Body;
  std::string ReturnVar; ///< Variable named in the trailing `return`.
  SourceLoc Loc;

  /// Cached interned names (see Expr::nameSym): the inliner binds every
  /// parameter and resolves the return variable once per inlined
  /// instance, up to 10^5 times per compile.
  support::Symbol returnVarSym() const {
    if (ReturnVarSym.empty() && !ReturnVar.empty())
      ReturnVarSym = support::Symbol(ReturnVar);
    return ReturnVarSym;
  }
  support::Symbol paramSym(size_t I) const {
    assert(I < Params.size() && "parameter index out of range");
    if (ParamSyms.size() != Params.size()) {
      ParamSyms.clear();
      for (const auto &[PName, PTy] : Params)
        ParamSyms.push_back(support::Symbol(PName));
    }
    return ParamSyms[I];
  }
  mutable support::Symbol ReturnVarSym;
  mutable std::vector<support::Symbol> ParamSyms;

  std::string str() const;
};

/// A parsed Tower compilation unit: type aliases plus functions.
struct Program {
  std::shared_ptr<TypeContext> Types;
  std::vector<std::pair<std::string, const Type *>> TypeDecls;
  std::vector<FunDecl> Functions;

  const FunDecl *findFunction(const std::string &Name) const;
  std::string str() const;
};

} // namespace spire::ast

#endif // SPIRE_AST_AST_H
