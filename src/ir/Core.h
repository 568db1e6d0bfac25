//===----------------------------------------------------------------------===//
///
/// \file
/// The core intermediate representation of Tower (paper Fig. 13):
///
///   s ::= if x { s } | s1; s2 | skip | x <- e | x -> e | H(x)
///       | x1 <=> x2 | *x1 <=> x2
///   e ::= v | pi1(x) | pi2(x) | uop x | x1 bop x2
///
/// extended, as in the paper's Section 7 ("we modified the core IR to add
/// with-do blocks"), with a first-class `with { s1 } do { s2 }` node so
/// that the conditional-narrowing optimization and the Appendix-D register
/// pinning rule can see block structure. Expansion to s1; s2; I[s1]
/// happens in the circuit compiler and the cost model, not destructively.
///
/// Operands of core expressions are atoms: either variables or constants
/// (the paper's value forms n, true, false, null, ()). All atoms carry
/// their type, annotated during lowering.
///
/// Variable names are interned support::Symbols (4-byte ids into the
/// process-wide spelling arena), so every scope lookup, mod-set query,
/// and equality test in the middle end is an integer operation; spellings
/// are materialized only by str() and diagnostics. The variable analyses
/// (modSet, allVars) return flat sorted SymbolSets built with one
/// sort+unique pass — no per-element node allocation.
///
/// Recursion discipline: const-arg recursion lowers to IR whose
/// with-block nesting grows with the recursion depth, so *everything*
/// here that walks statement trees — destruction, clone, reversal,
/// structural equality, printing, and the analyses — runs on explicit
/// worklists with O(1) C++ stack, matching the PR 2 lowerer and letting
/// deep programs flow through the whole pipeline (ir_test pins
/// destruction and printing at depth 200k).
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_IR_CORE_H
#define SPIRE_IR_CORE_H

#include "ast/AST.h"
#include "support/Symbol.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace spire::ir {

using ast::BinaryOp;
using ast::Type;
using ast::TypeContext;
using ast::UnaryOp;
using support::Symbol;
using support::SymbolSet;

//===----------------------------------------------------------------------===//
// Atoms
//===----------------------------------------------------------------------===//

/// A core operand: a variable reference or a constant value. Constants are
/// stored as raw little-endian bit patterns (64 bits suffice for the word
/// widths this compiler targets; wider values are asserted against in the
/// circuit backend).
struct Atom {
  enum class Kind { Var, Const };
  Kind K = Kind::Const;
  Symbol Var;            ///< For Kind::Var.
  uint64_t ConstBits = 0;///< For Kind::Const.
  const Type *Ty = nullptr;
  /// Marks a statically assigned heap-cell address produced by `alloc<T>`
  /// lowering. The backend writes such constants with a popcount-uniform
  /// gate pattern so that per-recursion-level gate counts stay exactly
  /// equal (mirroring the uniform cost of Tower's runtime allocator; see
  /// DESIGN.md section 2).
  bool IsAllocConst = false;

  bool isVar() const { return K == Kind::Var; }
  bool isConst() const { return K == Kind::Const; }
  /// A constant whose bit pattern is all zero (including null and ()).
  bool isZeroConst() const { return isConst() && ConstBits == 0; }

  static Atom var(Symbol Name, const Type *Ty);
  static Atom constant(uint64_t Bits, const Type *Ty);
  static Atom allocConst(uint64_t Address, const Type *Ty);

  std::string str() const;
  friend bool operator==(const Atom &A, const Atom &B);
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// A core right-hand side. `Atom` is the value form v; the rest mirror
/// Fig. 13's expression grammar over atom operands.
struct CoreExpr {
  enum class Kind { AtomE, Pair, Proj, Unary, Binary };
  Kind K = Kind::AtomE;
  Atom A;             ///< First (or only) operand.
  Atom B;             ///< Second operand (Pair, Binary).
  unsigned ProjIndex = 0;
  UnaryOp UOp = UnaryOp::Not;
  BinaryOp BOp = BinaryOp::And;
  const Type *Ty = nullptr; ///< Result type.

  static CoreExpr atom(Atom A);
  static CoreExpr pair(Atom A, Atom B, const Type *Ty);
  static CoreExpr proj(Atom A, unsigned Index, const Type *Ty);
  static CoreExpr unary(UnaryOp Op, Atom A, const Type *Ty);
  static CoreExpr binary(BinaryOp Op, Atom A, Atom B, const Type *Ty);

  /// Whether this expression is a constant value (paper: "x <- v ... for
  /// which no gates are emitted" when v is all-zero).
  bool isConst() const { return K == Kind::AtomE && A.isConst(); }
  bool isZeroConst() const { return isConst() && A.ConstBits == 0; }

  /// Appends the variable operands (unsorted, possibly duplicated) —
  /// the building block the sort+unique analyses batch over.
  void appendVars(std::vector<Symbol> &Out) const;
  std::string str() const;
  friend bool operator==(const CoreExpr &A, const CoreExpr &B);
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

struct CoreStmt;
using CoreStmtPtr = std::unique_ptr<CoreStmt>;
using CoreStmtList = std::vector<CoreStmtPtr>;

/// A core statement. Sequencing is represented by CoreStmtList in block
/// positions rather than by a binary Seq node, matching the list-based
/// representation of the paper's Appendix C OCaml.
struct CoreStmt {
  enum class Kind {
    Skip,
    Assign,   ///< x <- e
    UnAssign, ///< x -> e
    If,       ///< if x { body }
    With,     ///< with { body } do { doBody }
    Swap,     ///< x1 <=> x2
    MemSwap,  ///< *x1 <=> x2
    Hadamard, ///< H(x)
  };

  Kind K = Kind::Skip;
  Symbol Name;   ///< Assign/UnAssign/Hadamard target, Swap LHS,
                 ///< MemSwap pointer, If condition variable.
  Symbol Name2;  ///< Swap RHS, MemSwap value.
  const Type *Ty = nullptr;  ///< Type of Name (where meaningful).
  const Type *Ty2 = nullptr; ///< Type of Name2 (Swap/MemSwap).
  CoreExpr E;         ///< Assign/UnAssign RHS.
  CoreStmtList Body;    ///< If / with-block.
  CoreStmtList DoBody;  ///< With do-block.

  CoreStmt() = default;
  CoreStmt(CoreStmt &&) = default;
  CoreStmt &operator=(CoreStmt &&) = default;
  /// Iterative (worklist) destruction: const-arg recursion lowers to IR
  /// whose with-block nesting grows with the recursion depth, so the
  /// default member-wise destructor would recurse once per level and
  /// overflow the stack on deep programs. Children are drained onto an
  /// explicit worklist instead, bounding destruction at O(1) stack depth
  /// regardless of nesting (ir_test.cpp pins this at depth 200k).
  ~CoreStmt();

  CoreStmtPtr clone() const;
  std::string str(unsigned Indent = 0) const;

  static CoreStmtPtr skip();
  static CoreStmtPtr assign(Symbol X, const Type *Ty, CoreExpr E);
  static CoreStmtPtr unassign(Symbol X, const Type *Ty, CoreExpr E);
  static CoreStmtPtr ifStmt(Symbol CondVar, CoreStmtList Body);
  static CoreStmtPtr with(CoreStmtList Body, CoreStmtList DoBody);
  static CoreStmtPtr swap(Symbol A, const Type *TyA, Symbol B,
                          const Type *TyB);
  static CoreStmtPtr memSwap(Symbol Ptr, const Type *PtrTy, Symbol Val,
                             const Type *ValTy);
  static CoreStmtPtr hadamard(Symbol X, const Type *Ty);
};

/// Deep structural equality, used by optimization and reversal tests.
bool stmtEquals(const CoreStmt &A, const CoreStmt &B);
bool stmtListEquals(const CoreStmtList &A, const CoreStmtList &B);

CoreStmtList cloneStmts(const CoreStmtList &Stmts);
std::string strStmts(const CoreStmtList &Stmts, unsigned Indent = 0);

//===----------------------------------------------------------------------===//
// Reversal and analyses
//===----------------------------------------------------------------------===//

/// The derived form I[s] of Section 4: I[s1; s2] = I[s2]; I[s1],
/// I[x <- e] = x -> e and vice versa, I[if x { s }] = if x { I[s] },
/// I[with{a}do{b}] = with{a}do{I[b]}, other statements are self-inverse.
CoreStmtPtr reverseStmt(const CoreStmt &S);
CoreStmtList reverseStmts(const CoreStmtList &Stmts);

/// mod(s) from Fig. 20, extended to With (both blocks).
SymbolSet modSet(const CoreStmtList &Stmts);

/// All variable names referenced anywhere in the statements.
SymbolSet allVars(const CoreStmtList &Stmts);

/// A whole lowered program: a flat core statement list plus the variables
/// that are inputs (function parameters) and the declared output.
struct CoreProgram {
  std::shared_ptr<TypeContext> Types;
  std::vector<std::pair<Symbol, const Type *>> Inputs;
  Symbol OutputVar;
  const Type *OutputTy = nullptr;
  CoreStmtList Body;
  /// Number of heap cells statically assigned by `alloc<T>` lowering.
  unsigned NumAllocCells = 0;
  /// Widest pointee type (in bits at the backend's word width) ever
  /// stored through a pointer; used to size qRAM cells.
  std::vector<const Type *> PointeeTypes;

  CoreProgram clone() const;
  /// Copies everything except Body (left empty). Passes that produce a
  /// fresh body (the Spire rewriter) use this so the non-body field
  /// list lives in exactly one place next to clone().
  CoreProgram cloneShell() const;
  std::string str() const;
};

/// Generates fresh, globally unique variable names with a given prefix.
/// The "%" sigil cannot appear in surface identifiers, so fresh names
/// never collide with interned source spellings.
class NameGen {
public:
  Symbol fresh(std::string_view Prefix) {
    std::string Spelling;
    Spelling.reserve(Prefix.size() + 12);
    Spelling += '%';
    Spelling += Prefix;
    Spelling += std::to_string(Counter++);
    return Symbol(Spelling);
  }

private:
  unsigned Counter = 0;
};

} // namespace spire::ir

#endif // SPIRE_IR_CORE_H
