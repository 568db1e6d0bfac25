#include "sim/Interpreter.h"

#include "support/Governor.h"

#include <algorithm>
#include <cassert>

using namespace spire::ir;

namespace spire::sim {

uint64_t Interpreter::maskOf(const ast::Type *Ty) const {
  unsigned W = widthOf(Ty);
  assert(W <= 64 && "values wider than 64 bits are unsupported");
  return W == 64 ? ~uint64_t(0) : ((uint64_t(1) << W) - 1);
}

uint64_t Interpreter::evalAtom(const Atom &A,
                               const MachineState &State) const {
  if (A.isConst())
    return A.ConstBits & maskOf(A.Ty);
  auto It = State.Regs.find(A.Var);
  uint64_t V = It == State.Regs.end() ? 0 : It->second;
  return V & maskOf(A.Ty);
}

uint64_t Interpreter::evalExpr(const CoreExpr &E,
                               const MachineState &State) const {
  switch (E.K) {
  case CoreExpr::Kind::AtomE:
    return evalAtom(E.A, State);

  case CoreExpr::Kind::Pair: {
    uint64_t A = evalAtom(E.A, State);
    uint64_t B = evalAtom(E.B, State);
    return A | (B << widthOf(E.A.Ty));
  }

  case CoreExpr::Kind::Proj: {
    const ast::Type *BaseTy = Program.Types->resolveTopLevel(E.A.Ty);
    assert(BaseTy->isPair() && "projection from non-pair");
    uint64_t V = evalAtom(E.A, State);
    unsigned W1 = widthOf(BaseTy->first());
    if (E.ProjIndex == 1)
      return V & maskOf(BaseTy->first());
    return (V >> W1) & maskOf(BaseTy->second());
  }

  case CoreExpr::Kind::Unary: {
    uint64_t A = evalAtom(E.A, State);
    if (E.UOp == ast::UnaryOp::Not)
      return (A ^ 1) & 1;
    return A != 0 ? 1 : 0; // test
  }

  case CoreExpr::Kind::Binary: {
    uint64_t A = evalAtom(E.A, State);
    uint64_t B = evalAtom(E.B, State);
    uint64_t Mask = maskOf(E.A.Ty);
    switch (E.BOp) {
    case ast::BinaryOp::And:
      return A & B & 1;
    case ast::BinaryOp::Or:
      return (A | B) & 1;
    case ast::BinaryOp::Add:
      return (A + B) & Mask;
    case ast::BinaryOp::Sub:
      return (A - B) & Mask;
    case ast::BinaryOp::Mul:
      return (A * B) & Mask;
    case ast::BinaryOp::Eq:
      return A == B ? 1 : 0;
    case ast::BinaryOp::Ne:
      return A != B ? 1 : 0;
    case ast::BinaryOp::Lt:
      return A < B ? 1 : 0;
    }
    return 0;
  }
  }
  return 0;
}

bool Interpreter::execAssign(const CoreStmt &S, MachineState &State) {
  uint64_t V = evalExpr(S.E, State);
  State.Regs[S.Name] ^= V & maskOf(S.Ty);
  ++DeclCount[S.Name];
  return true;
}

bool Interpreter::execUnAssign(const CoreStmt &S, MachineState &State) {
  uint64_t V = evalExpr(S.E, State);
  uint64_t &R = State.Regs[S.Name];
  R ^= V & maskOf(S.Ty);
  // The zero invariant applies only when the outermost declaration is
  // removed; intermediate re-declaration layers may hold other layers'
  // contributions (e.g. reversed conditional re-declarations).
  if (--DeclCount[S.Name] > 0)
    return true;
  DeclCount.erase(S.Name);
  if (R != 0) {
    Error = "un-assignment of '" + S.Name.str() +
            "' did not restore zero (value " + std::to_string(R) + ")";
    return false;
  }
  State.Regs.erase(S.Name);
  return true;
}

bool Interpreter::execStmts(const CoreStmtList &Stmts, MachineState &State) {
  // Explicit worklist: each frame iterates one statement list, forward
  // or reversed. A reversed frame executes inverses in place — I[s1;s2]
  // = I[s2];I[s1] via backward iteration, I[x <- e] = x -> e and vice
  // versa — so a with-block's uncomputation leg is just its body frame
  // with Rev set, with no reverseStmts() clone and no C++ recursion.
  struct Frame {
    const CoreStmtList *List;
    size_t Pos;
    bool Rev;
  };
  std::vector<Frame> Stack;
  Stack.push_back({&Stmts, 0, false});

  while (!Stack.empty()) {
    // Governor checkpoint: a tripped budget stops the simulation with
    // an explicit error instead of running an unbounded program.
    if (!support::Governor::poll()) {
      Error = "simulation stopped by resource limit";
      return false;
    }
    Frame &F = Stack.back();
    if (F.Pos == F.List->size()) {
      Stack.pop_back();
      continue;
    }
    const CoreStmt &S =
        F.Rev ? *(*F.List)[F.List->size() - 1 - F.Pos] : *(*F.List)[F.Pos];
    const bool Rev = F.Rev;
    ++F.Pos; // F may dangle after a push below; advance first.

    switch (S.K) {
    case CoreStmt::Kind::Skip:
      break;

    case CoreStmt::Kind::Assign:
      if (!(Rev ? execUnAssign(S, State) : execAssign(S, State)))
        return false;
      break;

    case CoreStmt::Kind::UnAssign:
      if (!(Rev ? execAssign(S, State) : execUnAssign(S, State)))
        return false;
      break;

    case CoreStmt::Kind::If: {
      // I[if x { s }] = if x { I[s] }: same condition (the body may not
      // modify it), body direction-inherited.
      auto It = State.Regs.find(S.Name);
      bool Cond = It != State.Regs.end() && (It->second & 1);
      if (Cond)
        Stack.push_back({&S.Body, 0, Rev});
      break;
    }

    case CoreStmt::Kind::With:
      // Forward: body; do; I[body]. Reversed (I[with{a}do{b}] =
      // with{a}do{I[b]}): a; I[b]; I[a]. Both orders are "body forward,
      // do-body direction-inherited, body reversed", pushed LIFO.
      Stack.push_back({&S.Body, 0, true});
      Stack.push_back({&S.DoBody, 0, Rev});
      Stack.push_back({&S.Body, 0, false});
      break;

    case CoreStmt::Kind::Swap: {
      uint64_t A = State.Regs[S.Name];
      uint64_t B = State.Regs[S.Name2];
      State.Regs[S.Name] = B;
      State.Regs[S.Name2] = A;
      break;
    }

    case CoreStmt::Kind::MemSwap: {
      uint64_t Address = State.Regs[S.Name] & maskOf(S.Ty);
      if (Address == 0 || Address >= State.Mem.size())
        break; // Null or out-of-range dereference is a no-op.
      unsigned SwapBits = std::min(widthOf(S.Ty2), CellBits);
      uint64_t Mask = SwapBits >= 64 ? ~uint64_t(0)
                                     : ((uint64_t(1) << SwapBits) - 1);
      uint64_t &Cell = State.Mem[Address];
      uint64_t &Reg = State.Regs[S.Name2];
      uint64_t CellLow = Cell & Mask, RegLow = Reg & Mask;
      Cell = (Cell & ~Mask) | RegLow;
      Reg = (Reg & ~Mask) | CellLow;
      break;
    }

    case CoreStmt::Kind::Hadamard:
      Error = "interpreter cannot execute H(" + S.Name.str() +
              "); use the state-vector simulator";
      return false;
    }
  }
  return true;
}

bool Interpreter::run(MachineState &State) {
  if (State.Mem.size() != Config.HeapCells + 1)
    State.Mem.resize(Config.HeapCells + 1, 0);
  return execStmts(Program.Body, State);
}

uint64_t Interpreter::output(const MachineState &State) const {
  auto It = State.Regs.find(Program.OutputVar);
  return It == State.Regs.end() ? 0 : It->second;
}

BitString encodeState(const MachineState &State,
                      const circuit::CircuitLayout &Layout) {
  BitString Bits(Layout.NumQubits);
  for (const auto &[Name, Range] : Layout.Inputs) {
    auto It = State.Regs.find(Name);
    if (It != State.Regs.end())
      Bits.write(Range.Offset, Range.Width, It->second);
  }
  for (unsigned A = 1; A <= Layout.HeapCells; ++A) {
    if (A < State.Mem.size()) {
      circuit::BitRange Cell = Layout.cell(A);
      Bits.write(Cell.Offset, Cell.Width, State.Mem[A]);
    }
  }
  return Bits;
}

MachineState decodeState(const BitString &Bits,
                         const circuit::CircuitLayout &Layout,
                         const std::vector<std::string> &Names) {
  MachineState State = MachineState::make(Layout.HeapCells);
  for (const std::string &Name : Names) {
    auto It = Layout.Inputs.find(Name);
    if (It != Layout.Inputs.end())
      State.Regs[Name] = Bits.read(It->second.Offset, It->second.Width);
  }
  for (unsigned A = 1; A <= Layout.HeapCells; ++A) {
    circuit::BitRange Cell = Layout.cell(A);
    State.Mem[A] = Bits.read(Cell.Offset, Cell.Width);
  }
  return State;
}

} // namespace spire::sim
