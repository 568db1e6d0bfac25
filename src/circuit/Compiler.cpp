#include "circuit/Compiler.h"

#include "support/SymbolMap.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace spire::ir;

namespace spire::circuit {

int64_t PrimitiveProfile::tComplexityUnder(unsigned ExtraControls) const {
  int64_t T = 0;
  for (unsigned C : XControlCounts)
    T += tCostOfMCX(C + ExtraControls);
  for (unsigned C : HControlCounts)
    T += tCostOfControlledH(C + ExtraControls);
  return T;
}

unsigned cellBitsFor(const CoreProgram &P, const TargetConfig &Config) {
  unsigned Bits = 1;
  for (const ast::Type *T : P.PointeeTypes)
    Bits = std::max(Bits, P.Types->bitWidth(T, Config.WordBits));
  return Bits;
}

namespace {

using support::Symbol;
using support::SymbolSet;

/// A virtual operand bit used by the arithmetic emitters: a constant, a
/// wire, or the AND of two wires (for multiplier partial products).
struct VBit {
  enum class Kind { Zero, One, Wire, And2 };
  Kind K = Kind::Zero;
  Qubit Q1 = 0, Q2 = 0;

  static VBit zero() { return {}; }
  static VBit one() {
    VBit V;
    V.K = Kind::One;
    return V;
  }
  static VBit wire(Qubit Q) {
    VBit V;
    V.K = Kind::Wire;
    V.Q1 = Q;
    return V;
  }
  static VBit and2(Qubit A, Qubit B) {
    VBit V;
    V.K = Kind::And2;
    V.Q1 = A;
    V.Q2 = B;
    return V;
  }
  static VBit constant(bool B) { return B ? one() : zero(); }
};

/// Compiles core IR to an MCX circuit. One instance per compilation; also
/// reused by profilePrimitive with a pre-seeded variable map.
///
/// Statement traversal runs on an explicit action stack (compileStmts
/// below), so with-block nesting that grows with the source recursion
/// depth — the const-arg-recursion shape — compiles with O(1) C++ stack.
/// Gate emission assembles control lists in a reused scratch buffer and
/// hands them to ControlList's inline storage, so the per-gate hot path
/// performs no heap allocation at all (the seed emitter built one or two
/// std::vectors per gate, ~2.3 allocations/gate across a compile).
class Emitter {
public:
  Emitter(const ast::TypeContext &Types, const TargetConfig &Config,
          unsigned CellBits)
      : Types(Types), Config(Config), CellBits(CellBits) {}

  const ast::TypeContext &Types;
  TargetConfig Config;
  unsigned CellBits;

  Circuit C;
  std::vector<Qubit> Ctx;
  /// Register plus live re-declaration depth per variable: `let x <- e`
  /// on a live x XORs into the same register (Appendix B.2) and its
  /// reversal un-assigns the innermost re-declaration, so the register
  /// is released only when the count returns to zero. One flat
  /// Symbol-keyed lookup covers what used to be two string-keyed tree
  /// lookups, and a new variable costs no allocation.
  struct VarInfo {
    BitRange R;
    unsigned Decl = 0;
  };
  support::SymbolMap<VarInfo> Vars;
  std::map<unsigned, std::vector<Qubit>> FreeByWidth;
  Qubit NextFree = 0;
  Qubit MemBase = 0;
  bool MemAllocated = false;
  /// Constant-source ancillas used by the popcount-uniform write of
  /// alloc-cell addresses: OneBit is prepared to |1> once per program.
  Qubit ZeroBit = 0, OneBit = 0;
  bool AllocAncillas = false;

  /// One Appendix-D reservation scope per active with-do do-block.
  struct Reservation {
    SymbolSet Affected;
    support::SymbolMap<BitRange> Parked;
  };
  std::vector<Reservation> Reservations;

  unsigned widthOf(const ast::Type *T) const {
    return Types.bitWidth(T, Config.WordBits);
  }

  //===--------------------------------------------------------------------===//
  // Register allocation
  //===--------------------------------------------------------------------===//

  BitRange allocate(unsigned Width) {
    if (Width == 0)
      return {0, 0};
    auto &Free = FreeByWidth[Width];
    if (!Free.empty()) {
      Qubit Offset = Free.back();
      Free.pop_back();
      return {Offset, Width};
    }
    BitRange R{NextFree, Width};
    NextFree += Width;
    return R;
  }

  void release(BitRange R) {
    if (R.Width == 0)
      return;
    FreeByWidth[R.Width].push_back(R.Offset);
  }

  /// Allocates a register for a newly declared variable, preferring a
  /// register parked for it by an enclosing do-block reservation
  /// (Appendix D: an affected variable is re-assigned its old register).
  BitRange allocateFor(Symbol Name, unsigned Width) {
    for (auto It = Reservations.rbegin(); It != Reservations.rend(); ++It) {
      auto P = It->Parked.find(Name);
      if (P != It->Parked.end()) {
        BitRange R = P->second;
        assert(R.Width == Width && "parked register width mismatch");
        It->Parked.erase(P);
        return R;
      }
    }
    return allocate(Width);
  }

  /// Frees the register of an un-assigned variable, parking it instead if
  /// an enclosing do-block reservation covers the variable.
  void releaseFor(Symbol Name, BitRange R) {
    for (auto It = Reservations.rbegin(); It != Reservations.rend(); ++It) {
      if (It->Affected.count(Name)) {
        It->Parked[Name] = R;
        return;
      }
    }
    release(R);
  }

  void ensureMemory() {
    if (MemAllocated)
      return;
    MemBase = NextFree;
    NextFree += Config.HeapCells * CellBits;
    MemAllocated = true;
  }

  /// Reserves the zero/one ancillas. The |1> preparation gate is emitted
  /// only by the whole-program driver (EmitPrep), so that per-primitive
  /// profiles exclude the one-time setup.
  void ensureAllocAncillas(bool EmitPrep) {
    if (AllocAncillas)
      return;
    ZeroBit = allocate(1).Offset;
    OneBit = allocate(1).Offset;
    AllocAncillas = true;
    if (EmitPrep)
      C.Gates.push_back(Gate(GateKind::X, OneBit));
  }

  //===--------------------------------------------------------------------===//
  // Gate emission primitives
  //===--------------------------------------------------------------------===//

  /// Reused control-assembly buffer: cleared and refilled per gate, never
  /// reallocated in steady state.
  std::vector<Qubit> GateScratch;

  /// Sorts and dedupes the staged controls. Almost every gate has 0-3
  /// controls (operand wires plus the if-context), so the tiny cases are
  /// unrolled rather than paying a std::sort call per gate.
  void sortUniqueScratch() {
    auto &V = GateScratch;
    if (V.size() <= 1)
      return;
    if (V.size() == 2) {
      if (V[0] > V[1])
        std::swap(V[0], V[1]);
      if (V[0] == V[1])
        V.pop_back();
      return;
    }
    std::sort(V.begin(), V.end());
    V.erase(std::unique(V.begin(), V.end()), V.end());
  }

  /// Emits an X on Target controlled by the current context plus the
  /// `Extra` controls already staged in GateScratch. The context is what
  /// makes `if` costly: every gate in a conditional body carries the
  /// condition bits (Fig. 21).
  void emitXFromScratch(Qubit Target) {
    GateScratch.insert(GateScratch.end(), Ctx.begin(), Ctx.end());
    sortUniqueScratch();
    assert(std::find(GateScratch.begin(), GateScratch.end(), Target) ==
               GateScratch.end() &&
           "gate target collides with a control; unsupported self-"
           "referential assignment");
    C.Gates.push_back(Gate(GateKind::X, Target,
                           ControlList(GateScratch.data(),
                                       GateScratch.data() +
                                           GateScratch.size()),
                           Gate::PresortedTag{}));
  }

  void emitX(Qubit Target) {
    GateScratch.clear();
    emitXFromScratch(Target);
  }
  void emitX(Qubit Target, std::initializer_list<Qubit> Extra) {
    GateScratch.assign(Extra.begin(), Extra.end());
    emitXFromScratch(Target);
  }
  void emitX(Qubit Target, const std::vector<Qubit> &Extra) {
    GateScratch.assign(Extra.begin(), Extra.end());
    emitXFromScratch(Target);
  }

  void emitH(Qubit Target) {
    GateScratch.assign(Ctx.begin(), Ctx.end());
    // Nested ifs over the same condition variable put its qubit in the
    // context twice; a duplicated control is the same single control.
    sortUniqueScratch();
    C.Gates.push_back(Gate(GateKind::H, Target,
                           ControlList(GateScratch.data(),
                                       GateScratch.data() +
                                           GateScratch.size()),
                           Gate::PresortedTag{}));
  }

  /// Target ^= V (a virtual bit), under the context.
  void emitXorV(Qubit Target, const VBit &V) {
    switch (V.K) {
    case VBit::Kind::Zero:
      return;
    case VBit::Kind::One:
      emitX(Target);
      return;
    case VBit::Kind::Wire:
      emitX(Target, {V.Q1});
      return;
    case VBit::Kind::And2:
      emitX(Target, {V.Q1, V.Q2});
      return;
    }
  }

  /// Target ^= AND of all VControls (virtual) and Extra wires; a
  /// constant-false control suppresses the gate, constant-true controls
  /// are dropped.
  void emitXV(Qubit Target, std::initializer_list<VBit> VControls,
              std::initializer_list<Qubit> Extra = {}) {
    GateScratch.assign(Extra.begin(), Extra.end());
    for (const VBit &V : VControls) {
      switch (V.K) {
      case VBit::Kind::Zero:
        return; // Gate can never fire.
      case VBit::Kind::One:
        break;
      case VBit::Kind::Wire:
        GateScratch.push_back(V.Q1);
        break;
      case VBit::Kind::And2:
        GateScratch.push_back(V.Q1);
        GateScratch.push_back(V.Q2);
        break;
      }
    }
    emitXFromScratch(Target);
  }

  /// Re-emits gates [Start, End) in reverse order; all must be X-kind
  /// (self-inverse), which holds for everything expression synthesis
  /// produces. Used to restore scratch registers.
  void appendReversed(size_t Start, size_t End) {
    for (size_t I = End; I > Start; --I) {
      const Gate &G = C.Gates[I - 1];
      assert(G.Kind == GateKind::X && "cannot blindly reverse non-X gate");
      C.Gates.push_back(G);
    }
  }

  //===--------------------------------------------------------------------===//
  // Operand access
  //===--------------------------------------------------------------------===//

  BitRange rangeOf(Symbol Var) const {
    auto It = Vars.find(Var);
    assert(It != Vars.end() && "unbound variable reached the backend");
    return It->second.R;
  }

  /// The i-th bit of an atom as a virtual bit.
  VBit atomBit(const Atom &A, unsigned I) const {
    if (A.isConst())
      return VBit::constant(I < 64 && ((A.ConstBits >> I) & 1));
    BitRange R = rangeOf(A.Var);
    if (I >= R.Width)
      return VBit::zero();
    return VBit::wire(R.Offset + I);
  }

  unsigned atomWidth(const Atom &A) const { return widthOf(A.Ty); }

  /// Target range ^= atom value (bit-wise XOR copy).
  void emitXorAtom(BitRange Target, const Atom &A, unsigned SrcShift = 0) {
    if (A.isConst() && A.IsAllocConst) {
      // Popcount-uniform immediate write: one CNOT per bit, sourced from
      // the constant one/zero ancillas, so every alloc site costs the
      // same number of gates regardless of its address bit pattern.
      ensureAllocAncillas(/*EmitPrep=*/false);
      for (unsigned I = 0; I != Target.Width; ++I) {
        bool Bit = (SrcShift + I) < 64 && ((A.ConstBits >> (SrcShift + I)) & 1);
        emitX(Target.Offset + I, {Bit ? OneBit : ZeroBit});
      }
      return;
    }
    for (unsigned I = 0; I != Target.Width; ++I)
      emitXorV(Target.Offset + I, atomBit(A, SrcShift + I));
  }

  //===--------------------------------------------------------------------===//
  // Arithmetic: VBE ripple adder (Vedral, Barenco, Ekert 1996)
  //===--------------------------------------------------------------------===//

  /// In-place B := B + V (mod 2^Width) where V is a vector of virtual
  /// bits. Allocates and restores its own carry scratch.
  void emitVBEAdd(const std::vector<VBit> &V, BitRange B) {
    unsigned N = B.Width;
    assert(V.size() >= N && "addend too narrow");
    if (N == 0)
      return;
    if (N == 1) {
      emitXorV(B.Offset, V[0]);
      return;
    }
    // Carries c[1..N-1]; c[0] is identically zero and omitted.
    BitRange Carry = allocate(N - 1);
    auto CarryBit = [&](unsigned I) -> Qubit {
      assert(I >= 1 && I <= N - 1);
      return Carry.Offset + (I - 1);
    };

    // CARRY(c_i, v_i, b_i, c_{i+1}); gates on the constant-zero c_0 fold.
    auto EmitCarry = [&](unsigned I) {
      emitXV(CarryBit(I + 1), {V[I], VBit::wire(B.Offset + I)});
      emitXorV(B.Offset + I, V[I]);
      if (I >= 1)
        emitX(CarryBit(I + 1), {CarryBit(I), B.Offset + I});
    };
    auto EmitCarryInv = [&](unsigned I) {
      if (I >= 1)
        emitX(CarryBit(I + 1), {CarryBit(I), B.Offset + I});
      emitXorV(B.Offset + I, V[I]);
      emitXV(CarryBit(I + 1), {V[I], VBit::wire(B.Offset + I)});
    };
    auto EmitSum = [&](unsigned I) {
      emitXorV(B.Offset + I, V[I]);
      if (I >= 1)
        emitX(B.Offset + I, {CarryBit(I)});
    };

    for (unsigned I = 0; I + 1 < N; ++I)
      EmitCarry(I);
    EmitSum(N - 1);
    for (unsigned I = N - 1; I-- > 0;) {
      EmitCarryInv(I);
      EmitSum(I);
    }
    release(Carry);
  }

  /// Reused addend buffer for the arithmetic emitters: each emitVBEAdd
  /// consumes its operand before the next one is staged, so a single
  /// scratch serves every adder without per-add vector allocations.
  std::vector<VBit> VScratch;

  const std::vector<VBit> &atomBits(const Atom &A, unsigned Width,
                                    unsigned Shift = 0) {
    VScratch.clear();
    VScratch.reserve(Width);
    for (unsigned I = 0; I != Width; ++I) {
      if (I < Shift)
        VScratch.push_back(VBit::zero());
      else
        VScratch.push_back(atomBit(A, I - Shift));
    }
    return VScratch;
  }

  const std::vector<VBit> &constBits(uint64_t Value, unsigned Width) {
    VScratch.clear();
    for (unsigned I = 0; I != Width; ++I)
      VScratch.push_back(VBit::constant(I < 64 && ((Value >> I) & 1)));
    return VScratch;
  }

  //===--------------------------------------------------------------------===//
  // Expression synthesis: Target ^= e
  //===--------------------------------------------------------------------===//

  void emitEqCore(Qubit Target, const Atom &A, const Atom &B) {
    unsigned Width = std::max(atomWidth(A), atomWidth(B));
    if (Width == 0) {
      emitX(Target); // Unit values are always equal.
      return;
    }
    if (A.isConst() && B.isConst()) {
      if (A.ConstBits == B.ConstBits)
        emitX(Target);
      return;
    }
    if (A.isVar() && B.isVar() && rangeOf(A.Var).Offset == rangeOf(B.Var).Offset) {
      emitX(Target); // x == x.
      return;
    }
    // diff := ~(a ^ b); Target ^= AND(diff); restore diff.
    BitRange Diff = allocate(Width);
    size_t Mark = C.Gates.size();
    emitXorAtom(Diff, A);
    emitXorAtom(Diff, B);
    for (unsigned I = 0; I != Width; ++I)
      emitX(Diff.Offset + I);
    size_t EndCompute = C.Gates.size();
    std::vector<Qubit> Controls;
    for (unsigned I = 0; I != Width; ++I)
      Controls.push_back(Diff.Offset + I);
    emitX(Target, Controls);
    appendReversed(Mark, EndCompute);
    release(Diff);
  }

  void emitLess(Qubit Target, const Atom &A, const Atom &B) {
    unsigned Width = Config.WordBits;
    // acc := a + ~b + 1 over Width+1 bits; a < b iff the top bit is 0.
    BitRange Acc = allocate(Width + 1);
    size_t Mark = C.Gates.size();
    // acc ^= ~b (low Width bits).
    for (unsigned I = 0; I != Width; ++I) {
      emitX(Acc.Offset + I);
      emitXorV(Acc.Offset + I, atomBit(B, I));
    }
    emitVBEAdd(atomBits(A, Width + 1), Acc);
    emitVBEAdd(constBits(1, Width + 1), Acc);
    size_t EndCompute = C.Gates.size();
    // Target ^= NOT acc[Width].
    emitX(Target);
    emitX(Target, {Acc.Offset + Width});
    appendReversed(Mark, EndCompute);
    release(Acc);
  }

  void emitArith(BitRange Target, ast::BinaryOp Op, const Atom &A,
                 const Atom &B) {
    unsigned Width = Target.Width;
    BitRange Acc = allocate(Width);
    size_t Mark = C.Gates.size();
    switch (Op) {
    case ast::BinaryOp::Add:
      emitXorAtom(Acc, B);
      emitVBEAdd(atomBits(A, Width), Acc);
      break;
    case ast::BinaryOp::Sub:
      // a - b = a + ~b + 1.
      for (unsigned I = 0; I != Width; ++I) {
        emitX(Acc.Offset + I);
        emitXorV(Acc.Offset + I, atomBit(B, I));
      }
      emitVBEAdd(atomBits(A, Width), Acc);
      emitVBEAdd(constBits(1, Width), Acc);
      break;
    case ast::BinaryOp::Mul:
      // Shift-and-add schoolbook product.
      for (unsigned J = 0; J != Width; ++J) {
        VBit BJ = atomBit(B, J);
        if (BJ.K == VBit::Kind::Zero)
          continue;
        VScratch.clear();
        for (unsigned I = 0; I != Width; ++I) {
          if (I < J) {
            VScratch.push_back(VBit::zero());
            continue;
          }
          VBit AI = atomBit(A, I - J);
          // Addend bit = a_{i-j} AND b_j, folded over constants.
          if (AI.K == VBit::Kind::Zero || BJ.K == VBit::Kind::Zero)
            VScratch.push_back(VBit::zero());
          else if (AI.K == VBit::Kind::One)
            VScratch.push_back(BJ);
          else if (BJ.K == VBit::Kind::One)
            VScratch.push_back(AI);
          else
            VScratch.push_back(VBit::and2(AI.Q1, BJ.Q1));
        }
        emitVBEAdd(VScratch, Acc);
      }
      break;
    default:
      assert(false && "not an arithmetic operator");
    }
    size_t EndCompute = C.Gates.size();
    for (unsigned I = 0; I != Width; ++I)
      emitX(Target.Offset + I, {Acc.Offset + I});
    appendReversed(Mark, EndCompute);
    release(Acc);
  }

  void emitXorExpr(BitRange Target, const CoreExpr &E) {
    switch (E.K) {
    case CoreExpr::Kind::AtomE:
      emitXorAtom(Target, E.A);
      return;

    case CoreExpr::Kind::Pair: {
      unsigned WA = atomWidth(E.A);
      emitXorAtom({Target.Offset, WA}, E.A);
      emitXorAtom({Target.Offset + WA, Target.Width - WA}, E.B);
      return;
    }

    case CoreExpr::Kind::Proj: {
      const ast::Type *BaseTy = Types.resolveTopLevel(E.A.Ty);
      assert(BaseTy->isPair() && "projection from non-pair");
      unsigned W1 = widthOf(BaseTy->first());
      unsigned Shift = E.ProjIndex == 1 ? 0 : W1;
      emitXorAtom(Target, E.A, Shift);
      return;
    }

    case CoreExpr::Kind::Unary: {
      if (E.UOp == ast::UnaryOp::Not) {
        emitX(Target.Offset);
        emitXorV(Target.Offset, atomBit(E.A, 0));
        return;
      }
      // test x: Target ^= [x != 0] = 1 ^ [x == 0].
      emitX(Target.Offset);
      emitEqCore(Target.Offset, E.A,
                 Atom::constant(0, E.A.Ty));
      return;
    }

    case CoreExpr::Kind::Binary: {
      switch (E.BOp) {
      case ast::BinaryOp::And: {
        emitXV(Target.Offset, {atomBit(E.A, 0), atomBit(E.B, 0)});
        return;
      }
      case ast::BinaryOp::Or: {
        // t ^= 1 ^ (~a & ~b).
        VBit A = atomBit(E.A, 0), B = atomBit(E.B, 0);
        emitX(Target.Offset);
        Qubit Flipped[2];
        unsigned NumFlipped = 0;
        auto Negate = [&](VBit &V) {
          switch (V.K) {
          case VBit::Kind::Zero:
            V = VBit::one();
            break;
          case VBit::Kind::One:
            V = VBit::zero();
            break;
          case VBit::Kind::Wire:
            emitX(V.Q1);
            Flipped[NumFlipped++] = V.Q1;
            break;
          case VBit::Kind::And2:
            assert(false && "unexpected virtual AND operand");
          }
        };
        Negate(A);
        Negate(B);
        emitXV(Target.Offset, {A, B});
        for (unsigned I = 0; I != NumFlipped; ++I)
          emitX(Flipped[I]);
        return;
      }
      case ast::BinaryOp::Eq:
        emitEqCore(Target.Offset, E.A, E.B);
        return;
      case ast::BinaryOp::Ne:
        emitX(Target.Offset);
        emitEqCore(Target.Offset, E.A, E.B);
        return;
      case ast::BinaryOp::Lt:
        emitLess(Target.Offset, E.A, E.B);
        return;
      case ast::BinaryOp::Add:
      case ast::BinaryOp::Sub:
      case ast::BinaryOp::Mul:
        emitArith(Target, E.BOp, E.A, E.B);
        return;
      }
      return;
    }
    }
  }

  //===--------------------------------------------------------------------===//
  // Statement compilation (worklist machine)
  //===--------------------------------------------------------------------===//

  /// Compiles one primitive (non-block) statement.
  void compilePrimitive(const CoreStmt &S) {
    switch (S.K) {
    case CoreStmt::Kind::Skip:
      return;

    case CoreStmt::Kind::Assign: {
      auto It = Vars.find(S.Name);
      BitRange Target;
      if (It != Vars.end()) {
        Target = It->second.R; // Re-declaration XORs into the same qubits.
        ++It->second.Decl;
      } else {
        Target = allocateFor(S.Name, widthOf(S.Ty));
        Vars.emplace(S.Name, VarInfo{Target, 1});
      }
      emitXorExpr(Target, S.E);
      return;
    }

    case CoreStmt::Kind::UnAssign: {
      auto It = Vars.find(S.Name);
      assert(It != Vars.end() && "unbound variable reached the backend");
      BitRange Target = It->second.R;
      emitXorExpr(Target, S.E); // XOR of an equal value restores zero.
      if (--It->second.Decl == 0) {
        Vars.erase(It);
        releaseFor(S.Name, Target);
      }
      return;
    }

    case CoreStmt::Kind::Swap: {
      BitRange A = rangeOf(S.Name);
      BitRange B = rangeOf(S.Name2);
      assert(A.Width == B.Width && "swap width mismatch");
      for (unsigned I = 0; I != A.Width; ++I) {
        emitX(A.Offset + I, {B.Offset + I});
        emitX(B.Offset + I, {A.Offset + I});
        emitX(A.Offset + I, {B.Offset + I});
      }
      return;
    }

    case CoreStmt::Kind::MemSwap: {
      ensureMemory();
      BitRange P = rangeOf(S.Name);
      BitRange V = rangeOf(S.Name2);
      unsigned SwapBits = std::min(V.Width, CellBits);
      std::vector<Qubit> Match;
      for (unsigned I = 0; I != P.Width; ++I)
        Match.push_back(P.Offset + I);
      for (unsigned Address = 1; Address <= Config.HeapCells; ++Address) {
        // Conjugate pointer bits so the address-match controls are all
        // positive on the pattern `Address`.
        std::vector<Qubit> Conj;
        for (unsigned I = 0; I != P.Width; ++I)
          if (((static_cast<uint64_t>(Address) >> I) & 1) == 0)
            Conj.push_back(P.Offset + I);
        for (Qubit Q : Conj)
          emitX(Q);
        Qubit Cell = MemBase + (Address - 1) * CellBits;
        for (unsigned I = 0; I != SwapBits; ++I) {
          Qubit M = Cell + I, W = V.Offset + I;
          emitX(M, {W});
          GateScratch.assign(Match.begin(), Match.end());
          GateScratch.push_back(M);
          emitXFromScratch(W);
          emitX(M, {W});
        }
        for (Qubit Q : Conj)
          emitX(Q);
      }
      return;
    }

    case CoreStmt::Kind::Hadamard: {
      BitRange X = rangeOf(S.Name);
      assert(X.Width == 1 && "H requires a bool variable");
      emitH(X.Offset);
      return;
    }

    case CoreStmt::Kind::If:
    case CoreStmt::Kind::With:
      assert(false && "block statement reached compilePrimitive");
      return;
    }
  }

  /// One pending step of the statement machine.
  struct Action {
    enum class K : uint8_t {
      Exec,      ///< Compile *S (blocks expand into further actions).
      PopCtx,    ///< End of an if-body: drop the innermost control bit.
      WithDo,    ///< S's with-block is compiled: open the reservation
                 ///< scope and queue the do-block.
      WithClose, ///< S's do-block is compiled: close the reservation and
                 ///< queue the uncomputation I[with-block].
      FreeOwned, ///< Destroy `Owned` (a reversed-body copy that the
                 ///< preceding Exec actions pointed into).
    };
    K Kind;
    const CoreStmt *S = nullptr;
    CoreStmtList Owned;

    Action(K Kind, const CoreStmt *S) : Kind(Kind), S(S) {}
    explicit Action(CoreStmtList Owned)
        : Kind(K::FreeOwned), Owned(std::move(Owned)) {}
  };

  std::vector<Action> Work;

  void queueExec(const CoreStmtList &Stmts) {
    for (auto It = Stmts.rbegin(); It != Stmts.rend(); ++It)
      Work.push_back(Action(Action::K::Exec, It->get()));
  }

  void runMachine() {
    while (!Work.empty()) {
      Action A = std::move(Work.back());
      Work.pop_back();
      switch (A.Kind) {
      case Action::K::Exec:
        switch (A.S->K) {
        case CoreStmt::Kind::If: {
          BitRange Cond = rangeOf(A.S->Name);
          assert(Cond.Width == 1 && "if condition must be a single bit");
          Ctx.push_back(Cond.Offset);
          Work.push_back(Action(Action::K::PopCtx, nullptr));
          queueExec(A.S->Body);
          break;
        }
        case CoreStmt::Kind::With:
          Work.push_back(Action(Action::K::WithDo, A.S));
          queueExec(A.S->Body);
          break;
        default:
          compilePrimitive(*A.S);
          break;
        }
        break;

      case Action::K::PopCtx:
        Ctx.pop_back();
        break;

      case Action::K::WithDo: {
        // Appendix D: variables referenced by the with-block and live at
        // the start of the do-block must keep their registers across it.
        Reservation R;
        for (Symbol Name : allVars(A.S->Body))
          if (Vars.count(Name))
            R.Affected.insert(Name);
        Reservations.push_back(std::move(R));
        Work.push_back(Action(Action::K::WithClose, A.S));
        queueExec(A.S->DoBody);
        break;
      }

      case Action::K::WithClose: {
        Reservation Done = std::move(Reservations.back());
        Reservations.pop_back();
        // Parked registers consumed in the do-block and never
        // re-created are now dead; release them in spelling order (the
        // order the seed's string-keyed map iterated in) so register
        // reuse — and therefore the emitted circuit — is byte-identical
        // to the seed backend. This is a presentation-order boundary:
        // the spellings are materialized only here.
        std::vector<std::pair<Symbol, BitRange>> ByName(
            Done.Parked.begin(), Done.Parked.end());
        std::sort(ByName.begin(), ByName.end(),
                  [](const auto &A, const auto &B) {
                    return A.first.view() < B.first.view();
                  });
        for (const auto &[Name, Reg] : ByName)
          releaseFor(Name, Reg);
        // Uncompute the with-block: queue I[body], keeping the reversed
        // copy alive (FreeOwned) until its last statement has compiled.
        CoreStmtList Rev = reverseStmts(A.S->Body);
        Action Holder(std::move(Rev));
        queueExecIntoHolder(Holder);
        break;
      }

      case Action::K::FreeOwned:
        break; // Owned list destroys here (worklist destructor).
      }
    }
  }

  /// Pushes the holder first, then Exec actions over its owned
  /// statements, so the holder outlives every pointer into it. The
  /// CoreStmt nodes live on the heap behind unique_ptrs, so the Exec
  /// pointers stay valid however the Work vector reallocates; the holder
  /// is re-read by index because push_back invalidates references.
  void queueExecIntoHolder(Action &Holder) {
    Work.push_back(std::move(Holder));
    size_t HolderIdx = Work.size() - 1;
    size_t N = Work[HolderIdx].Owned.size();
    for (size_t I = N; I-- > 0;)
      Work.push_back(
          Action(Action::K::Exec, Work[HolderIdx].Owned[I].get()));
  }

  void compileStmt(const CoreStmt &S) {
    assert(Work.empty() && "re-entrant statement machine");
    Work.push_back(Action(Action::K::Exec, &S));
    runMachine();
  }

  void compileStmts(const CoreStmtList &Stmts) {
    assert(Work.empty() && "re-entrant statement machine");
    queueExec(Stmts);
    runMachine();
  }
};

/// Collects (variable, type) pairs referenced by one primitive statement
/// or an if-chain around one (the form profilePrimitive accepts).
void collectStmtVarTypes(const CoreStmt &S,
                         std::map<Symbol, const ast::Type *> &Out) {
  auto AddAtom = [&](const Atom &A) {
    if (A.isVar())
      Out.emplace(A.Var, A.Ty);
  };
  if (!S.Name.empty() && S.Ty)
    Out.emplace(S.Name, S.Ty);
  if (!S.Name2.empty() && S.Ty2)
    Out.emplace(S.Name2, S.Ty2);
  if (S.K == CoreStmt::Kind::Assign || S.K == CoreStmt::Kind::UnAssign) {
    AddAtom(S.E.A);
    if (S.E.K == CoreExpr::Kind::Pair || S.E.K == CoreExpr::Kind::Binary)
      AddAtom(S.E.B);
  }
  if (S.K == CoreStmt::Kind::If)
    for (const auto &Inner : S.Body)
      collectStmtVarTypes(*Inner, Out);
}

} // namespace

CompileResult compileToCircuit(const CoreProgram &P,
                               const TargetConfig &Config) {
  Emitter E(*P.Types, Config, cellBitsFor(P, Config));

  CircuitLayout Layout;
  for (const auto &[Name, Ty] : P.Inputs) {
    BitRange R = E.allocate(E.widthOf(Ty));
    // Decl starts at 0 (not 1): a body-level re-declaration of an input
    // followed by its un-assignment frees the input's register, exactly
    // as the declaration counting has always behaved.
    E.Vars.emplace(Name, Emitter::VarInfo{R, 0});
    Layout.Inputs[Name.str()] = R;
  }
  // Memory immediately after the inputs so its position is predictable.
  E.ensureMemory();
  Layout.MemBase = E.MemBase;
  Layout.CellBits = E.CellBits;
  Layout.HeapCells = Config.HeapCells;

  if (P.NumAllocCells > 0)
    E.ensureAllocAncillas(/*EmitPrep=*/true);

  // Compile top-level statements one at a time and extrapolate the final
  // gate count at a few checkpoints, reserving the gate vector up front:
  // recursion-inlined programs emit millions of near-uniform statements,
  // and letting std::vector double its way up re-copies the whole gate
  // list ~20 times (measured as a third of the compile stage). The first
  // checkpoint waits for 16 statements so a single unrepresentative
  // heavy statement cannot skew the projection, and the whole thing is
  // capped so a pathological prefix cannot demand absurd memory (a
  // reservation can only grow, never shrink).
  constexpr size_t ReserveCap = size_t{1} << 25; // 32M gates (~1 GiB).
  size_t NextCheckpoint = 16;
  for (size_t I = 0; I != P.Body.size(); ++I) {
    E.compileStmt(*P.Body[I]);
    if (I + 1 == NextCheckpoint && I + 1 < P.Body.size()) {
      NextCheckpoint *= 64;
      size_t Projected =
          (E.C.Gates.size() / (I + 1) + 1) * P.Body.size() + 64;
      Projected = std::min(Projected, ReserveCap);
      if (Projected > E.C.Gates.capacity())
        E.C.Gates.reserve(Projected);
    }
  }

  auto Out = E.Vars.find(P.OutputVar);
  assert(Out != E.Vars.end() && "output variable not live at program end");
  Layout.Output = Out->second.R;
  Layout.NumQubits = E.NextFree;
  // Record the still-live registers (inputs, output, leaked temporaries)
  // and the deliberately-|1> alloc ancilla: everything else must exit at
  // |0>, and the static ancilla-cleanness analysis holds it to that.
  for (const auto &[Name, Info] : E.Vars)
    Layout.LiveAtExit.push_back(Info.R);
  std::sort(Layout.LiveAtExit.begin(), Layout.LiveAtExit.end(),
            [](const BitRange &A, const BitRange &B) {
              return A.Offset < B.Offset;
            });
  if (E.AllocAncillas)
    Layout.PreparedOneWire = E.OneBit;

  CompileResult Result;
  Result.Circ = std::move(E.C);
  Result.Circ.NumQubits = E.NextFree;
  Result.Layout = Layout;
  return Result;
}

PrimitiveProfile profilePrimitive(const CoreStmt &S,
                                  const ir::TypeContext &Types,
                                  const TargetConfig &Config,
                                  unsigned CellBits) {
#ifndef NDEBUG
  // A primitive statement, possibly wrapped in single-statement if-chains
  // (the cost model profiles `if x { s }` directly when x is read by s,
  // so that control merging is reflected exactly).
  for (const CoreStmt *Cursor = &S; ;
       Cursor = Cursor->Body.front().get()) {
    assert(Cursor->K != CoreStmt::Kind::With &&
           "profilePrimitive requires a primitive statement");
    if (Cursor->K != CoreStmt::Kind::If)
      break;
    assert(Cursor->Body.size() == 1 &&
           "profiled if-wrappers must have single-statement bodies");
  }
#endif
  Emitter E(Types, Config, CellBits);
  std::map<Symbol, const ast::Type *> VarTypes;
  collectStmtVarTypes(S, VarTypes);
  E.Vars.reserve(VarTypes.size());
  for (const auto &[Name, Ty] : VarTypes)
    E.Vars.emplace(Name, Emitter::VarInfo{E.allocate(E.widthOf(Ty)), 0});
  E.compileStmt(S);

  PrimitiveProfile Profile;
  for (const Gate &G : E.C.Gates) {
    if (G.Kind == GateKind::X)
      Profile.XControlCounts.push_back(G.numControls());
    else if (G.Kind == GateKind::H)
      Profile.HControlCounts.push_back(G.numControls());
  }
  return Profile;
}

} // namespace spire::circuit
