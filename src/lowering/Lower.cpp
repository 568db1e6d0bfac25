#include "lowering/Lower.h"

#include "ast/Reverse.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sema/TypeChecker.h"
#include "support/Governor.h"
#include "support/SymbolMap.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <vector>

using namespace spire::ast;
using namespace spire::ir;

namespace spire::lowering {

namespace {

using support::Symbol;
using support::SymbolSet;

/// A live variable binding in the current lowering scope: the core-IR name
/// it was renamed to, plus its type.
struct VarBinding {
  Symbol CoreName;
  const Type *Ty = nullptr;
};

/// Scopes key surface spellings by Symbol: one intern (a short-string
/// hash) per reference, u32 equality thereafter, and a flat table — no
/// per-lookup string compares and no per-binding node when scopes are
/// filled per inlined call or copied around with-blocks. An insert or
/// erase invalidates references into the scope (support/SymbolMap.h).
using Scope = support::SymbolMap<VarBinding>;

/// Whether a callee body is spliced forward or reversed (un-call).
enum class CallMode { Forward, Reversed };

/// Tri-state result of lowering a statement's expressions: `Suspend` means
/// an expression-position call must be inlined by the machine before the
/// statement can be replayed (see the Lowerer comment below).
enum class Flow { OK, Error, Suspend };

/// A completed expression-position call inline, memoized so that replaying
/// the suspended statement can splice the already-lowered body at exactly
/// the position the recursive lowerer would have produced it.
struct PendingCall {
  CoreStmtList Body;
  VarBinding Result;
};

/// Progress state of the statement a frame is currently lowering; present
/// only while that statement is suspended on child frames or pending
/// inlines.
struct StmtWork {
  enum class Kind { Expr, If, With };
  Kind K = Kind::Expr;

  /// Memoized expression-position inlines, consumed in the deterministic
  /// DFS order flattening visits call sites.
  std::vector<PendingCall> Pending;
  size_t NextPending = 0;

  /// Construct-specific phase counter; see resumeIf/resumeWith.
  int Phase = 0;

  // If artifacts.
  CoreStmtList Pre;
  Symbol CondName, NotName;
  CoreStmtList Then, Else;

  // With artifacts.
  Scope Snapshot, AfterWith;
  CoreStmtList WithBody, DoBody;

  /// Returns the object to its just-constructed state while keeping the
  /// container capacities (StmtWorks are pooled — one is acquired per
  /// compound statement, which used to mean one heap allocation each).
  void reset(Kind NewK) {
    K = NewK;
    Pending.clear();
    NextPending = 0;
    Phase = 0;
    Pre.clear();
    CondName = Symbol();
    NotName = Symbol();
    Then.clear();
    Else.clear();
    Snapshot.clear();
    AfterWith.clear();
    WithBody.clear();
    DoBody.clear();
  }
};

/// Epilogue data for an inlined-call frame: everything needed to finish
/// the call once its body has been lowered, and where to deliver the
/// spliced statements and result binding.
struct CallCompletion {
  const FunDecl *Callee = nullptr;
  CallMode Mode = CallMode::Forward;
  CoreStmtList ConstPrologue;
  std::optional<VarBinding> BoundResult;
  std::string SavedSizeParam;
  int64_t SavedSizeValue = 0;

  /// Where the finished call delivers: a `let x <- f(...)` splices into
  /// the caller's output and binds x; a `let x -> f(...)` splices the
  /// reversed body and unbinds x; an expression-position call is memoized
  /// in the caller's pending list for statement replay.
  enum class Dest { LetDirect, UnLetDirect, ExprPending };
  Dest D = Dest::ExprPending;
  Symbol LetName; ///< Surface variable for LetDirect/UnLetDirect.
};

/// One in-flight block lowering on the machine's explicit stack: a
/// statement sequence, the scope it mutates, accumulated output, and what
/// to do with the output when the sequence is exhausted.
struct Frame {
  const StmtList *Stmts = nullptr; ///< Borrowed for forward bodies.
  StmtList OwnedStmts;             ///< Storage for reversed bodies.
  size_t Next = 0;

  /// Where lowered statements accumulate. Sub-block frames own their
  /// output (it is wrapped or repositioned on delivery), but a directly
  /// bound call with no constant-argument prologue splices flat into its
  /// caller at the caller's current end — so such frames write straight
  /// into the caller's list, making delivery O(1) instead of re-moving
  /// every statement at every level of a deep inline chain (which made
  /// the lowering quadratic in the recursion depth).
  CoreStmtList *Out = nullptr;
  CoreStmtList OwnedOut;

  /// The scope in effect: the enclosing frame's for if/with bodies, the
  /// frame-owned callee scope for inlined calls.
  Scope *S = nullptr;
  Scope OwnedScope;

  std::unique_ptr<StmtWork> Work; ///< In-progress statement, if any.

  /// Where Out goes on completion.
  enum class Deliver { Root, Then, Else, WithBlock, DoBlock, Call };
  Deliver D = Deliver::Root;
  Frame *Parent = nullptr;
  CallCompletion Call; ///< For Deliver::Call frames.

  /// Returns the frame to its just-constructed state, keeping container
  /// capacities (frames are pooled across the up-to-10^5 inlined calls
  /// of the recursive benchmarks; in particular the callee scope's slot
  /// array is reused instead of reallocated per call).
  void reset() {
    Stmts = nullptr;
    OwnedStmts.clear();
    Next = 0;
    Out = nullptr;
    OwnedOut.clear();
    S = nullptr;
    OwnedScope.clear();
    Work.reset();
    D = Deliver::Root;
    Parent = nullptr;
    Call.Callee = nullptr;
    Call.Mode = CallMode::Forward;
    Call.ConstPrologue.clear();
    Call.BoundResult.reset();
    Call.SavedSizeParam.clear();
    Call.SavedSizeValue = 0;
    Call.D = CallCompletion::Dest::ExprPending;
    Call.LetName = Symbol();
  }
};

/// The lowerer, rewritten from mutual C++ recursion into an explicit
/// worklist machine so that inlining depth is bounded by
/// LowerOptions::MaxInlineDepth (a diagnostic) rather than by the C++
/// call stack (a segfault at `--size 5000+` in the seed).
///
/// Structure-bounded recursion remains recursive: expression flattening
/// (flattenExpr/atomize) recurses over the source expression tree, whose
/// depth is fixed by the program text. The unbounded dimension — the
/// call-inlining chain — runs on a heap-allocated stack of Frames driven
/// by runMachine(): each frame lowers one statement sequence (the entry
/// body, an if/with sub-block, or an inlined callee body) and delivers its
/// output to its parent on completion.
///
/// Calls in expression position are handled by attempt/replay: lowering a
/// statement's expressions is deterministic, so when flattening reaches a
/// call that has not been inlined yet, the attempt rolls back (an undo
/// journal covers name counters and the static allocator), the machine
/// inlines the call into a memoized PendingCall, and the statement is
/// replayed, splicing the memoized body at exactly the position the
/// recursive lowerer emitted it — the resulting IR is unchanged.
class Lowerer {
public:
  Lowerer(ast::Program &Program, support::DiagnosticEngine &Diags,
          const LowerOptions &Opts)
      : Program(Program), Diags(Diags), Opts(Opts), Types(*Program.Types) {}

  std::optional<CoreProgram> run(const std::string &Entry, int64_t SizeValue);

private:
  // -- Machine driver. -----------------------------------------------------
  bool runMachine();
  bool stepFrame(Frame &F);
  bool completeFrame();
  bool finishCall(Frame &F);
  bool deliverCall(Frame &Caller, CallCompletion &C, CoreStmtList Final,
                   VarBinding Result);
  void pushBlockFrame(Frame &Parent, const StmtList &Stmts,
                      Frame::Deliver D);

  // -- Statement dispatch and construct resumption. ------------------------
  bool dispatchStmt(Frame &F, const Stmt &St);
  bool resumeWork(Frame &F);
  bool runExprStmt(Frame &F, const Stmt &St);
  bool resumeIf(Frame &F, const Stmt &St);
  bool resumeWith(Frame &F, const Stmt &St);
  bool emitIf(Frame &F, const Stmt &St);

  /// Starts inlining a call: runs the prologue (instance/depth guards,
  /// base case, parameter binding) and pushes a callee frame, or delivers
  /// synchronously for the size<=0 base case. Returns false on error.
  bool startInlineCall(Frame &Caller, const Expr &Call, CallMode Mode,
                       std::optional<VarBinding> BoundResult,
                       CallCompletion::Dest D, Symbol LetName);

  /// Inlines the call recorded by the last Flow::Suspend into the frame's
  /// pending list.
  bool requestInline(Frame &F) {
    assert(SuspendedCall && "suspend without a recorded call site");
    const Expr &Call = *SuspendedCall;
    SuspendedCall = nullptr;
    return startInlineCall(F, Call, CallMode::Forward, std::nullopt,
                           CallCompletion::Dest::ExprPending, Symbol());
  }

  // -- Expression flattening (recursive; depth bounded by the source). -----
  Flow flattenExpr(const Expr &E, Scope &S, CoreStmtList &Pre, CoreExpr &Out,
                   StmtWork &W);
  Flow atomize(const Expr &E, Scope &S, CoreStmtList &Pre, Atom &Out,
               StmtWork &W);
  bool lowerConstant(const Expr &E, Atom &Out);

  // -- Attempt journaling: rollback for replayed statements. ---------------
  struct Journal {
    unsigned SavedAllocCells = 0;
    size_t SavedPointees = 0;
    /// Touched name counters with their prior value (nullopt = absent).
    std::vector<std::pair<Symbol, std::optional<unsigned>>> Counters;
    /// Pending bodies moved into Pre: (pending index, start, length).
    struct Splice {
      size_t PendingIdx, Start, Len;
    };
    std::vector<Splice> Splices;
  };

  void beginAttempt(Journal &J) {
    J.SavedAllocCells = AllocCells;
    J.SavedPointees = PointeeTypes.size();
    ActiveJournal = &J;
  }
  void endAttempt() { ActiveJournal = nullptr; }
  void rollbackAttempt(Journal &J, CoreStmtList &Pre, StmtWork &W);
  void journalCounter(Symbol Name);

  /// Evaluates a static size expression in the current instance.
  int64_t evalSize(const SizeExpr &E) const {
    return E.evaluate(CurrentSizeParam, CurrentSizeValue);
  }

  /// Produces a unique core-IR name derived from a surface name.
  Symbol uniquify(Symbol Name);

  /// mod(body) of a callee, cached: collectModSet walks the whole body
  /// and the recursive benchmarks inline the same function up to 10^5
  /// times. The cached set is a flat sorted SymbolSet.
  const SymbolSet &modSetOf(const FunDecl &F);

  // -- Inline-frame trace batches. -----------------------------------------
  // A depth-100k lowering inlines one frame per call; per-frame spans
  // would drown the trace, so instances are grouped into spans of
  // TraceBatchSize (each reporting its instance count as an arg). Only
  // active when tracing is enabled; the open batch is closed (and the
  // `lower.inline_instances` counter flushed) at the end of run().
  static constexpr unsigned TraceBatchSize = 4096;
  bool TraceBatchOpen = false;
  unsigned TraceBatchStart = 0;

  void noteInlineInstanceTrace() {
    if (!obs::Tracer::global().enabled())
      return;
    if (TraceBatchOpen &&
        InlineInstances - TraceBatchStart >= TraceBatchSize)
      closeInlineBatchTrace();
    if (!TraceBatchOpen) {
      obs::Tracer::global().begin("lower/inline-batch");
      TraceBatchOpen = true;
      TraceBatchStart = InlineInstances - 1;
    }
  }

  void closeInlineBatchTrace() {
    if (!TraceBatchOpen)
      return;
    obs::TraceArg Instances{"instances",
                            InlineInstances - TraceBatchStart};
    obs::Tracer::global().end("lower/inline-batch", &Instances, 1);
    TraceBatchOpen = false;
  }

  ast::Program &Program;
  support::DiagnosticEngine &Diags;
  const LowerOptions &Opts;
  TypeContext &Types;

  support::SymbolMap<unsigned> NameCounters;
  unsigned InlineInstances = 0;
  unsigned InlineDepth = 0;
  unsigned AllocCells = 0;
  std::vector<const Type *> PointeeTypes;
  std::map<const FunDecl *, SymbolSet> ModSets;

  /// Interned-once spellings for the lowering-generated name families.
  const Symbol TempPrefix = Symbol("%e");
  const Symbol NotPrefix = Symbol("%not");

  std::string CurrentSizeParam;
  int64_t CurrentSizeValue = 0;

  std::vector<std::unique_ptr<Frame>> Frames;
  const Expr *SuspendedCall = nullptr;
  Journal *ActiveJournal = nullptr;

  /// Recycled machine objects (see Frame::reset / StmtWork::reset).
  std::vector<std::unique_ptr<Frame>> FramePool;
  std::vector<std::unique_ptr<StmtWork>> WorkPool;

  std::unique_ptr<Frame> acquireFrame() {
    if (FramePool.empty())
      return std::make_unique<Frame>();
    std::unique_ptr<Frame> F = std::move(FramePool.back());
    FramePool.pop_back();
    return F;
  }
  void recycleFrame(std::unique_ptr<Frame> F) {
    F->reset();
    FramePool.push_back(std::move(F));
  }
  std::unique_ptr<StmtWork> acquireWork(StmtWork::Kind K) {
    if (WorkPool.empty()) {
      auto W = std::make_unique<StmtWork>();
      W->K = K;
      return W;
    }
    std::unique_ptr<StmtWork> W = std::move(WorkPool.back());
    WorkPool.pop_back();
    W->reset(K);
    return W;
  }
  void recycleWork(std::unique_ptr<StmtWork> W) {
    if (W)
      WorkPool.push_back(std::move(W));
  }
};

void Lowerer::journalCounter(Symbol Name) {
  if (!ActiveJournal)
    return;
  auto It = NameCounters.find(Name);
  ActiveJournal->Counters.emplace_back(
      Name, It == NameCounters.end() ? std::nullopt
                                     : std::optional<unsigned>(It->second));
}

Symbol Lowerer::uniquify(Symbol Name) {
  journalCounter(Name);
  // `Entry` is written back before the suffixed spelling is inserted,
  // which may rehash NameCounters and move it.
  auto Entry = NameCounters.emplace(Name, 0).first;
  unsigned Counter = Entry->second;
  // The common case — first use of the spelling — touches no strings at
  // all; suffixed spellings are materialized (and interned) only when a
  // name is actually reused.
  Symbol Result =
      Counter == 0
          ? Name
          : Symbol(Name.str() + "'" + std::to_string(Counter));
  ++Counter;
  // Guard against a user-written name colliding with a suffixed one.
  while (NameCounters.count(Result) && Result != Name) {
    Result = Symbol(Name.str() + "'" + std::to_string(Counter));
    ++Counter;
  }
  Entry->second = Counter;
  if (Result != Name) {
    journalCounter(Result);
    NameCounters[Result] = 1;
  }
  return Result;
}

const SymbolSet &Lowerer::modSetOf(const FunDecl &F) {
  auto It = ModSets.find(&F);
  if (It == ModSets.end())
    It = ModSets.emplace(&F, sema::collectModSet(F.Body)).first;
  return It->second;
}

void Lowerer::rollbackAttempt(Journal &J, CoreStmtList &Pre, StmtWork &W) {
  AllocCells = J.SavedAllocCells;
  PointeeTypes.resize(J.SavedPointees);
  for (auto It = J.Counters.rbegin(); It != J.Counters.rend(); ++It) {
    if (It->second)
      NameCounters[It->first] = *It->second;
    else
      NameCounters.erase(It->first);
  }
  // Return memoized bodies moved into the discarded prologue.
  for (const Journal::Splice &Sp : J.Splices) {
    CoreStmtList &Body = W.Pending[Sp.PendingIdx].Body;
    for (size_t I = 0; I != Sp.Len; ++I)
      Body.push_back(std::move(Pre[Sp.Start + I]));
  }
  W.NextPending = 0;
}

bool Lowerer::lowerConstant(const Expr &E, Atom &Out) {
  switch (E.K) {
  case Expr::Kind::UIntLit:
    Out = Atom::constant(E.UIntValue, Types.uintType());
    return true;
  case Expr::Kind::BoolLit:
    Out = Atom::constant(E.BoolValue ? 1 : 0, Types.boolType());
    return true;
  case Expr::Kind::UnitLit:
    Out = Atom::constant(0, Types.unitType());
    return true;
  case Expr::Kind::NullLit:
    assert(E.Ty && "null literal not annotated by the type checker");
    Out = Atom::constant(0, E.Ty);
    return true;
  case Expr::Kind::Default:
    Out = Atom::constant(0, E.TypeArg);
    return true;
  case Expr::Kind::AllocCell: {
    // Static allocation: cells from the top of the heap downward (input
    // data structures conventionally occupy low cells; see DESIGN.md).
    if (AllocCells >= Opts.HeapCells) {
      Diags.error(E.Loc, "static allocator exhausted the heap (" +
                             std::to_string(Opts.HeapCells) + " cells)");
      return false;
    }
    uint64_t Address = Opts.HeapCells - AllocCells;
    ++AllocCells;
    // The checker annotates E.Ty as ptr(T); the allocated cell holds the
    // pointee T itself, so record and wrap the parsed type argument.
    PointeeTypes.push_back(E.TypeArg);
    Out = Atom::allocConst(Address, Types.ptrType(E.TypeArg));
    return true;
  }
  default:
    assert(false && "not a constant expression");
    return false;
  }
}

Flow Lowerer::atomize(const Expr &E, Scope &S, CoreStmtList &Pre, Atom &Out,
                      StmtWork &W) {
  switch (E.K) {
  case Expr::Kind::Var: {
    auto It = S.find(E.nameSym());
    if (It == S.end()) {
      Diags.error(E.Loc, "use of undeclared variable '" + E.Name +
                             "' during lowering");
      return Flow::Error;
    }
    Out = Atom::var(It->second.CoreName, It->second.Ty);
    return Flow::OK;
  }
  case Expr::Kind::UIntLit:
  case Expr::Kind::BoolLit:
  case Expr::Kind::UnitLit:
  case Expr::Kind::NullLit:
  case Expr::Kind::Default:
  case Expr::Kind::AllocCell:
    return lowerConstant(E, Out) ? Flow::OK : Flow::Error;
  case Expr::Kind::Call: {
    // Flattening visits call sites in a fixed order, so the memoized
    // inlines are consumed positionally. An unvisited call suspends the
    // statement; the machine inlines it and replays.
    if (W.NextPending < W.Pending.size()) {
      PendingCall &P = W.Pending[W.NextPending];
      if (ActiveJournal)
        ActiveJournal->Splices.push_back(
            {W.NextPending, Pre.size(), P.Body.size()});
      for (auto &St : P.Body)
        Pre.push_back(std::move(St));
      P.Body.clear();
      Out = Atom::var(P.Result.CoreName, P.Result.Ty);
      ++W.NextPending;
      return Flow::OK;
    }
    SuspendedCall = &E;
    return Flow::Suspend;
  }
  default: {
    // Compound operand: compute it into a fresh temporary. The caller
    // wraps Pre in a with-block, so the temporary is uncomputed.
    CoreExpr Sub;
    Flow Fl = flattenExpr(E, S, Pre, Sub, W);
    if (Fl != Flow::OK)
      return Fl;
    Symbol Temp = uniquify(TempPrefix);
    Atom Var = Atom::var(Temp, Sub.Ty);
    Pre.push_back(CoreStmt::assign(Temp, Sub.Ty, std::move(Sub)));
    Out = std::move(Var);
    return Flow::OK;
  }
  }
}

Flow Lowerer::flattenExpr(const Expr &E, Scope &S, CoreStmtList &Pre,
                          CoreExpr &Out, StmtWork &W) {
  assert(E.Ty && "expression not annotated by the type checker");
  switch (E.K) {
  case Expr::Kind::Var:
  case Expr::Kind::UIntLit:
  case Expr::Kind::BoolLit:
  case Expr::Kind::UnitLit:
  case Expr::Kind::NullLit:
  case Expr::Kind::Default:
  case Expr::Kind::AllocCell:
  case Expr::Kind::Call: {
    Atom A;
    Flow Fl = atomize(E, S, Pre, A, W);
    if (Fl != Flow::OK)
      return Fl;
    Out = CoreExpr::atom(std::move(A));
    return Flow::OK;
  }
  case Expr::Kind::Tuple: {
    Atom A, B;
    Flow Fl = atomize(*E.Args[0], S, Pre, A, W);
    if (Fl != Flow::OK)
      return Fl;
    Fl = atomize(*E.Args[1], S, Pre, B, W);
    if (Fl != Flow::OK)
      return Fl;
    Out = CoreExpr::pair(std::move(A), std::move(B), E.Ty);
    return Flow::OK;
  }
  case Expr::Kind::Proj: {
    Atom A;
    Flow Fl = atomize(*E.Args[0], S, Pre, A, W);
    if (Fl != Flow::OK)
      return Fl;
    Out = CoreExpr::proj(std::move(A), E.ProjIndex, E.Ty);
    return Flow::OK;
  }
  case Expr::Kind::Unary: {
    Atom A;
    Flow Fl = atomize(*E.Args[0], S, Pre, A, W);
    if (Fl != Flow::OK)
      return Fl;
    Out = CoreExpr::unary(E.UOp, std::move(A), E.Ty);
    return Flow::OK;
  }
  case Expr::Kind::Binary: {
    Atom A, B;
    Flow Fl = atomize(*E.Args[0], S, Pre, A, W);
    if (Fl != Flow::OK)
      return Fl;
    Fl = atomize(*E.Args[1], S, Pre, B, W);
    if (Fl != Flow::OK)
      return Fl;
    Out = CoreExpr::binary(E.BOp, std::move(A), std::move(B), E.Ty);
    return Flow::OK;
  }
  }
  return Flow::Error;
}

bool Lowerer::startInlineCall(Frame &Caller, const Expr &Call, CallMode Mode,
                              std::optional<VarBinding> BoundResult,
                              CallCompletion::Dest D, Symbol LetName) {
  const FunDecl *Callee = Program.findFunction(Call.Name);
  assert(Callee && "call to unknown function survived type checking");
  bool Reversed = Mode == CallMode::Reversed;
  assert((!Reversed || BoundResult) && "reversed calls need a target");

  if (++InlineInstances > Opts.MaxInlineInstances) {
    Diags.error(Call.Loc, "inlining exceeded " +
                              std::to_string(Opts.MaxInlineInstances) +
                              " instances; is the recursion unbounded?");
    return false;
  }
  noteInlineInstanceTrace();

  int64_t CalleeSize = 0;
  if (!Callee->SizeParam.empty())
    CalleeSize = evalSize(*Call.SizeArg);

  const Type *ResultTy = Call.Ty;
  assert(ResultTy && "call expression not annotated");

  // Base case: a size-indexed function at size <= 0 produces the all-zero
  // value of its return type (Section 3.1's semantics for `length`). No
  // frame is pushed; the call completes synchronously.
  if (!Callee->SizeParam.empty() && CalleeSize <= 0) {
    CoreExpr Zero = CoreExpr::atom(Atom::constant(0, ResultTy));
    CoreStmtList Final;
    VarBinding Result;
    if (Reversed) {
      Final.push_back(CoreStmt::unassign(BoundResult->CoreName,
                                         BoundResult->Ty, std::move(Zero)));
    } else if (BoundResult) {
      // Re-declaration: XOR zero into the existing register (no gates).
      Final.push_back(CoreStmt::assign(BoundResult->CoreName,
                                       BoundResult->Ty, std::move(Zero)));
      Result = *BoundResult;
    } else {
      Symbol Name = uniquify(Symbol(Callee->Name + ".base"));
      Final.push_back(CoreStmt::assign(Name, ResultTy, std::move(Zero)));
      Result = {Name, ResultTy};
    }
    CallCompletion C;
    C.Callee = Callee;
    C.Mode = Mode;
    C.D = D;
    C.LetName = std::move(LetName);
    return deliverCall(Caller, C, std::move(Final), std::move(Result));
  }

  // The machine stack replaces C++ recursion, so depth is bounded by this
  // option rather than by a segfault.
  if (InlineDepth >= Opts.MaxInlineDepth) {
    Diags.error(Call.Loc,
                "inlining exceeded the maximum call depth " +
                    std::to_string(Opts.MaxInlineDepth) +
                    "; raise the max-inline-depth limit if the program "
                    "really recurses this deeply");
    return false;
  }

  // Bind parameters directly into the (pooled) callee frame's scope.
  // Variable arguments alias the caller's registers (the callee body
  // operates on them directly); constant arguments are substituted
  // through a with-block temporary and must not be modified by the
  // callee body, which we verify against mod(body).
  std::unique_ptr<Frame> NF = acquireFrame();
  Scope &CalleeScope = NF->OwnedScope;
  const SymbolSet &CalleeMods = modSetOf(*Callee);
  CoreStmtList ConstPrologue;
  for (size_t I = 0; I != Call.Args.size(); ++I) {
    const Expr &Arg = *Call.Args[I];
    const auto &[PName, PTy] = Callee->Params[I];
    if (Arg.K == Expr::Kind::Var) {
      auto It = Caller.S->find(Arg.nameSym());
      if (It == Caller.S->end()) {
        Diags.error(Arg.Loc, "argument variable '" + Arg.Name +
                                 "' is not live at the call");
        return false;
      }
      CalleeScope[Callee->paramSym(I)] = It->second;
      continue;
    }
    Atom C;
    switch (Arg.K) {
    case Expr::Kind::UIntLit:
    case Expr::Kind::BoolLit:
    case Expr::Kind::UnitLit:
    case Expr::Kind::NullLit:
    case Expr::Kind::Default:
    case Expr::Kind::AllocCell:
      if (!lowerConstant(Arg, C))
        return false;
      break;
    default:
      Diags.error(Arg.Loc, "call arguments must be variables or constants "
                           "(compound expressions are not supported)");
      return false;
    }
    if (CalleeMods.count(Callee->paramSym(I))) {
      Diags.error(Arg.Loc, "constant argument bound to parameter '" + PName +
                               "' which the callee modifies; pass a "
                               "variable instead");
      return false;
    }
    Symbol Temp = uniquify(Callee->paramSym(I));
    VarBinding TempBinding{Temp, PTy};
    ConstPrologue.push_back(
        CoreStmt::assign(Temp, PTy, CoreExpr::atom(std::move(C))));
    CalleeScope[Callee->paramSym(I)] = TempBinding;
  }

  if (BoundResult) {
    if (CalleeScope.count(Callee->returnVarSym())) {
      Diags.error(Call.Loc, "cannot bind the result of '" + Call.Name +
                                "': its return variable shadows a "
                                "parameter");
      return false;
    }
    CalleeScope[Callee->returnVarSym()] = *BoundResult;
  }

  CallCompletion &C = NF->Call;
  C.Callee = Callee;
  C.Mode = Mode;
  C.ConstPrologue = std::move(ConstPrologue);
  C.BoundResult = std::move(BoundResult);
  C.SavedSizeParam = std::move(CurrentSizeParam);
  C.SavedSizeValue = CurrentSizeValue;
  C.D = D;
  C.LetName = LetName;
  CurrentSizeParam = Callee->SizeParam;
  CurrentSizeValue = CalleeSize;

  NF->D = Frame::Deliver::Call;
  NF->Parent = &Caller;
  // A directly bound call with no constant prologue splices flat at the
  // caller's current end, so its body can accumulate there in place;
  // otherwise the body is wrapped or memoized on completion and needs its
  // own list.
  if (NF->Call.ConstPrologue.empty() &&
      D != CallCompletion::Dest::ExprPending)
    NF->Out = Caller.Out;
  else
    NF->Out = &NF->OwnedOut;
  NF->S = &NF->OwnedScope;
  if (Reversed) {
    NF->OwnedStmts = ast::reverseStmts(Callee->Body);
    NF->Stmts = &NF->OwnedStmts;
  } else {
    // Forward bodies are lowered read-only; borrow the AST instead of
    // cloning it per instance.
    NF->Stmts = &Callee->Body;
  }
  ++InlineDepth;
  Frames.push_back(std::move(NF));
  return true;
}

bool Lowerer::finishCall(Frame &F) {
  CallCompletion &C = F.Call;
  CurrentSizeParam = std::move(C.SavedSizeParam);
  CurrentSizeValue = C.SavedSizeValue;
  --InlineDepth;

  CoreStmtList Final;
  if (!C.ConstPrologue.empty()) {
    // with { consts } do { body } uncomputes the constant temporaries.
    Final.push_back(
        CoreStmt::with(std::move(C.ConstPrologue), std::move(F.OwnedOut)));
  } else if (F.Out == &F.OwnedOut) {
    Final = std::move(F.OwnedOut);
  }
  // else: the body already accumulated in place in the caller's list.

  VarBinding Result;
  if (C.Mode == CallMode::Forward) {
    auto RV = F.S->find(C.Callee->returnVarSym());
    if (RV == F.S->end()) {
      Diags.error(C.Callee->Loc, "return variable '" + C.Callee->ReturnVar +
                                     "' is not live at the end of '" +
                                     C.Callee->Name + "'");
      return false;
    }
    Result = RV->second;
  }
  return deliverCall(*F.Parent, C, std::move(Final), std::move(Result));
}

bool Lowerer::deliverCall(Frame &Caller, CallCompletion &C,
                          CoreStmtList Final, VarBinding Result) {
  switch (C.D) {
  case CallCompletion::Dest::LetDirect:
    for (auto &St : Final)
      Caller.Out->push_back(std::move(St));
    (*Caller.S)[C.LetName] = std::move(Result);
    ++Caller.Next;
    return true;
  case CallCompletion::Dest::UnLetDirect:
    for (auto &St : Final)
      Caller.Out->push_back(std::move(St));
    Caller.S->erase(C.LetName);
    ++Caller.Next;
    return true;
  case CallCompletion::Dest::ExprPending:
    assert(Caller.Work && "pending inline without a suspended statement");
    Caller.Work->Pending.push_back({std::move(Final), std::move(Result)});
    return true;
  }
  return false;
}

void Lowerer::pushBlockFrame(Frame &Parent, const StmtList &Stmts,
                             Frame::Deliver D) {
  std::unique_ptr<Frame> NF = acquireFrame();
  NF->Stmts = &Stmts;
  NF->Out = &NF->OwnedOut;
  NF->S = Parent.S; // Nested blocks share the enclosing scope object.
  NF->D = D;
  NF->Parent = &Parent;
  Frames.push_back(std::move(NF));
}

bool Lowerer::runExprStmt(Frame &F, const Stmt &St) {
  if (!F.Work)
    F.Work = acquireWork(StmtWork::Kind::Expr);
  StmtWork &W = *F.Work;
  W.NextPending = 0;

  bool IsUnLet = St.K == Stmt::Kind::UnLet;
  Scope &S = *F.S;
  // Copied out, not held as an iterator: the scope is erased from below.
  VarBinding Target;
  if (IsUnLet) {
    auto It = S.find(St.nameSym());
    if (It == S.end()) {
      Diags.error(St.Loc, "un-assignment of unbound variable '" + St.Name +
                              "' during lowering");
      return false;
    }
    Target = It->second;
  }

  Journal J;
  beginAttempt(J);
  CoreStmtList Pre;
  CoreExpr RHS;
  Flow Fl = flattenExpr(*St.E, S, Pre, RHS, W);
  endAttempt();
  if (Fl == Flow::Error)
    return false;
  if (Fl == Flow::Suspend) {
    rollbackAttempt(J, Pre, W);
    return requestInline(F);
  }

  CoreStmtPtr Main;
  if (IsUnLet) {
    Main = CoreStmt::unassign(Target.CoreName, Target.Ty, std::move(RHS));
    S.erase(St.nameSym());
  } else {
    auto It = S.find(St.nameSym());
    Symbol CoreName;
    if (It != S.end()) {
      // Re-declaration: XOR into the same register (Appendix B.2).
      CoreName = It->second.CoreName;
    } else {
      CoreName = uniquify(St.nameSym());
      S[St.nameSym()] = {CoreName, RHS.Ty};
    }
    const Type *Ty = RHS.Ty;
    Main = CoreStmt::assign(CoreName, Ty, std::move(RHS));
  }
  if (Pre.empty()) {
    F.Out->push_back(std::move(Main));
  } else {
    CoreStmtList DoBody;
    DoBody.push_back(std::move(Main));
    F.Out->push_back(CoreStmt::with(std::move(Pre), std::move(DoBody)));
  }
  recycleWork(std::move(F.Work));
  ++F.Next;
  return true;
}

bool Lowerer::emitIf(Frame &F, const Stmt &St) {
  StmtWork &W = *F.Work;
  bool HasElse = !St.ElseBody.empty();
  CoreStmtList DoBody;
  DoBody.push_back(CoreStmt::ifStmt(W.CondName, std::move(W.Then)));
  if (HasElse)
    DoBody.push_back(CoreStmt::ifStmt(W.NotName, std::move(W.Else)));
  if (W.Pre.empty()) {
    for (auto &X : DoBody)
      F.Out->push_back(std::move(X));
  } else {
    F.Out->push_back(CoreStmt::with(std::move(W.Pre), std::move(DoBody)));
  }
  recycleWork(std::move(F.Work));
  ++F.Next;
  return true;
}

bool Lowerer::resumeIf(Frame &F, const Stmt &St) {
  // Phases: 0 condition attempt, 1 then-body running, 2 then delivered,
  // 3 else-body running, 4 else delivered. Children advance the phase on
  // delivery (completeFrame), so 1 and 3 are never resumed here.
  //
  // Desugaring (Yuan & Carbin [2022, Appendix B]):
  //   with { c <- cond; nc <- not c } do { if c {then}; if nc {else} }
  StmtWork &W = *F.Work;
  bool HasElse = !St.ElseBody.empty();
  switch (W.Phase) {
  case 0: {
    W.NextPending = 0;
    Journal J;
    beginAttempt(J);
    CoreStmtList Pre;
    Atom CondAtom;
    Flow Fl = atomize(*St.E, *F.S, Pre, CondAtom, W);
    endAttempt();
    if (Fl == Flow::Error)
      return false;
    if (Fl == Flow::Suspend) {
      rollbackAttempt(J, Pre, W);
      return requestInline(F);
    }
    assert(CondAtom.isVar() && "condition atom should be a variable");
    W.CondName = CondAtom.Var;
    if (HasElse) {
      W.NotName = uniquify(NotPrefix);
      Pre.push_back(CoreStmt::assign(
          W.NotName, Types.boolType(),
          CoreExpr::unary(UnaryOp::Not, CondAtom, Types.boolType())));
    }
    W.Pre = std::move(Pre);
    W.Phase = 1;
    pushBlockFrame(F, St.Body, Frame::Deliver::Then);
    return true;
  }
  case 2:
    if (HasElse) {
      W.Phase = 3;
      pushBlockFrame(F, St.ElseBody, Frame::Deliver::Else);
      return true;
    }
    return emitIf(F, St);
  case 4:
    return emitIf(F, St);
  default:
    assert(false && "if-frame resumed while a child is running");
    return false;
  }
}

bool Lowerer::resumeWith(Frame &F, const Stmt &St) {
  // Phases: 0 start, 1 with-body running, 2 with delivered, 3 do-body
  // running, 4 do delivered.
  StmtWork &W = *F.Work;
  switch (W.Phase) {
  case 0:
    W.Snapshot = *F.S;
    W.Phase = 1;
    pushBlockFrame(F, St.Body, Frame::Deliver::WithBlock);
    return true;
  case 2:
    W.AfterWith = *F.S;
    W.Phase = 3;
    pushBlockFrame(F, St.ElseBody, Frame::Deliver::DoBlock);
    return true;
  case 4: {
    // Bindings net-created by the with-block are uncomputed by its
    // reversal; the do-block's additions persist.
    Scope &S = *F.S;
    Scope Final = W.Snapshot;
    for (const auto &[Name, B] : S) {
      auto InWith = W.AfterWith.find(Name);
      bool CreatedByWith = InWith != W.AfterWith.end() &&
                           !W.Snapshot.count(Name) &&
                           InWith->second.CoreName == B.CoreName;
      if (!CreatedByWith)
        Final[Name] = B;
    }
    S = std::move(Final);
    F.Out->push_back(
        CoreStmt::with(std::move(W.WithBody), std::move(W.DoBody)));
    recycleWork(std::move(F.Work));
    ++F.Next;
    return true;
  }
  default:
    assert(false && "with-frame resumed while a child is running");
    return false;
  }
}

bool Lowerer::resumeWork(Frame &F) {
  const Stmt &St = *(*F.Stmts)[F.Next];
  switch (F.Work->K) {
  case StmtWork::Kind::Expr:
    return runExprStmt(F, St);
  case StmtWork::Kind::If:
    return resumeIf(F, St);
  case StmtWork::Kind::With:
    return resumeWith(F, St);
  }
  return false;
}

bool Lowerer::dispatchStmt(Frame &F, const Stmt &St) {
  Scope &S = *F.S;
  switch (St.K) {
  case Stmt::Kind::Skip:
    F.Out->push_back(CoreStmt::skip());
    ++F.Next;
    return true;

  case Stmt::Kind::Let: {
    // Direct call: splice the inlined body and alias the result variable.
    // If the target already exists (re-declaration) the callee's return
    // variable is pre-bound to it so writes XOR into the same register.
    if (St.E->K == Expr::Kind::Call) {
      std::optional<VarBinding> Bound;
      auto Existing = S.find(St.nameSym());
      if (Existing != S.end())
        Bound = Existing->second;
      return startInlineCall(F, *St.E, CallMode::Forward, std::move(Bound),
                             CallCompletion::Dest::LetDirect, St.Name);
    }
    return runExprStmt(F, St);
  }

  case Stmt::Kind::UnLet: {
    auto It = S.find(St.nameSym());
    if (It == S.end()) {
      Diags.error(St.Loc, "un-assignment of unbound variable '" + St.Name +
                              "' during lowering");
      return false;
    }
    if (St.E->K == Expr::Kind::Call) {
      // Uncompute via the reversed inlined body, with the callee's return
      // variable aliased to the target register.
      return startInlineCall(F, *St.E, CallMode::Reversed, It->second,
                             CallCompletion::Dest::UnLetDirect, St.Name);
    }
    return runExprStmt(F, St);
  }

  case Stmt::Kind::Swap: {
    auto A = S.find(St.nameSym()), B = S.find(St.name2Sym());
    if (A == S.end() || B == S.end()) {
      Diags.error(St.Loc, "swap of unbound variable during lowering");
      return false;
    }
    F.Out->push_back(CoreStmt::swap(A->second.CoreName, A->second.Ty,
                                   B->second.CoreName, B->second.Ty));
    ++F.Next;
    return true;
  }

  case Stmt::Kind::MemSwap: {
    auto P = S.find(St.nameSym()), V = S.find(St.name2Sym());
    if (P == S.end() || V == S.end()) {
      Diags.error(St.Loc, "memory swap of unbound variable during lowering");
      return false;
    }
    PointeeTypes.push_back(V->second.Ty);
    F.Out->push_back(CoreStmt::memSwap(P->second.CoreName, P->second.Ty,
                                      V->second.CoreName, V->second.Ty));
    ++F.Next;
    return true;
  }

  case Stmt::Kind::Hadamard: {
    auto X = S.find(St.nameSym());
    if (X == S.end()) {
      Diags.error(St.Loc, "h() of unbound variable during lowering");
      return false;
    }
    F.Out->push_back(CoreStmt::hadamard(X->second.CoreName, X->second.Ty));
    ++F.Next;
    return true;
  }

  case Stmt::Kind::If:
    F.Work = acquireWork(StmtWork::Kind::If);
    return resumeIf(F, St);

  case Stmt::Kind::With:
    F.Work = acquireWork(StmtWork::Kind::With);
    return resumeWith(F, St);
  }
  return false;
}

bool Lowerer::stepFrame(Frame &F) {
  if (F.Work)
    return resumeWork(F);
  return dispatchStmt(F, *(*F.Stmts)[F.Next]);
}

bool Lowerer::completeFrame() {
  std::unique_ptr<Frame> F = std::move(Frames.back());
  Frames.pop_back();
  bool OK = false;
  switch (F->D) {
  case Frame::Deliver::Root:
    // The root frame writes directly into the result body.
    OK = true;
    break;
  case Frame::Deliver::Then:
    F->Parent->Work->Then = std::move(F->OwnedOut);
    F->Parent->Work->Phase = 2;
    OK = true;
    break;
  case Frame::Deliver::Else:
    F->Parent->Work->Else = std::move(F->OwnedOut);
    F->Parent->Work->Phase = 4;
    OK = true;
    break;
  case Frame::Deliver::WithBlock:
    F->Parent->Work->WithBody = std::move(F->OwnedOut);
    F->Parent->Work->Phase = 2;
    OK = true;
    break;
  case Frame::Deliver::DoBlock:
    F->Parent->Work->DoBody = std::move(F->OwnedOut);
    F->Parent->Work->Phase = 4;
    OK = true;
    break;
  case Frame::Deliver::Call:
    OK = finishCall(*F);
    break;
  }
  recycleFrame(std::move(F));
  return OK;
}

bool Lowerer::runMachine() {
  while (!Frames.empty()) {
    // Governor checkpoint: a tripped budget unwinds the machine cleanly
    // (frames recycle on destruction); the driver's stage wrapper turns
    // the bail-out into the resource-limit diagnostic.
    if (!support::Governor::poll())
      return false;
    Frame &F = *Frames.back();
    if (!F.Work && F.Next == F.Stmts->size()) {
      if (!completeFrame())
        return false;
      continue;
    }
    if (!stepFrame(F))
      return false;
  }
  return true;
}

std::optional<CoreProgram> Lowerer::run(const std::string &Entry,
                                        int64_t SizeValue) {
  if (!Opts.AssumeTypeChecked) {
    sema::TypeChecker Checker(Program, Diags);
    if (!Checker.check())
      return std::nullopt;
  }

  const FunDecl *F = Program.findFunction(Entry);
  if (!F) {
    Diags.error("entry function '" + Entry + "' not found");
    return std::nullopt;
  }

  CoreProgram Result;
  Result.Types = Program.Types;

  Scope RootScope;
  for (const auto &[Name, Ty] : F->Params) {
    NameCounters[Name] = 1; // Reserve parameter names verbatim.
    RootScope[Name] = {Name, Ty};
    Result.Inputs.emplace_back(Name, Ty);
  }

  CurrentSizeParam = F->SizeParam;
  CurrentSizeValue = SizeValue;

  std::unique_ptr<Frame> Root = acquireFrame();
  Root->Stmts = &F->Body;
  Root->Out = &Result.Body;
  Root->S = &RootScope;
  Root->D = Frame::Deliver::Root;
  Frames.push_back(std::move(Root));
  bool MachineOK = runMachine();
  closeInlineBatchTrace();
  obs::Registry::global().counter("lower.inline_instances") +=
      InlineInstances;
  if (!MachineOK)
    return std::nullopt;

  auto RV = RootScope.find(F->ReturnVar);
  if (RV == RootScope.end()) {
    Diags.error(F->Loc, "return variable '" + F->ReturnVar +
                            "' is not live at the end of '" + Entry + "'");
    return std::nullopt;
  }
  Result.OutputVar = RV->second.CoreName;
  Result.OutputTy = RV->second.Ty;
  Result.NumAllocCells = AllocCells;
  Result.PointeeTypes = std::move(PointeeTypes);
  return Result;
}

} // namespace

std::optional<CoreProgram> lowerProgram(ast::Program &Program,
                                        const std::string &Entry,
                                        int64_t SizeValue,
                                        support::DiagnosticEngine &Diags,
                                        const LowerOptions &Opts) {
  Lowerer L(Program, Diags, Opts);
  return L.run(Entry, SizeValue);
}

CoreProgram lowerProgramOrDie(ast::Program &Program, const std::string &Entry,
                              int64_t SizeValue, const LowerOptions &Opts) {
  support::DiagnosticEngine Diags;
  std::optional<CoreProgram> P =
      lowerProgram(Program, Entry, SizeValue, Diags, Opts);
  if (!P) {
    std::fprintf(stderr, "lowering failed:\n%s\n", Diags.str().c_str());
    std::abort();
  }
  return std::move(*P);
}

} // namespace spire::lowering
