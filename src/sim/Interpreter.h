//===----------------------------------------------------------------------===//
///
/// \file
/// Classical reversible interpreter for core-IR programs.
///
/// Implements the circuit semantics of Appendix B.2 on classical machine
/// states |R, M> directly at the IR level: a register file mapping
/// variables to values and a qRAM memory mapping addresses to values.
/// Re-definition XORs (Section 4); null dereference is a no-op. H is not
/// supported (programs with H are validated through the state-vector
/// simulator instead).
///
/// The interpreter is the reference point for three validation layers:
/// optimizer soundness (Theorems 6.3/6.5: original vs optimized programs
/// agree on all machine states), backend correctness (interpreter vs
/// compiled circuit under runBasis), and benchmark functional tests
/// (`length` really computes the length of an encoded list).
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_SIM_INTERPRETER_H
#define SPIRE_SIM_INTERPRETER_H

#include "circuit/Compiler.h"
#include "ir/Core.h"
#include "sim/Simulator.h"
#include "support/SymbolMap.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace spire::sim {

/// A classical machine state: register file plus memory. Memory cell
/// addresses are 1-based; index 0 of Mem is unused. Registers key on
/// interned Symbols (spelling-level callers — tests, spirec --run —
/// keep writing `S.Regs["xs"]`; the implicit intern happens once per
/// site, and every interpreter step is then a u32-keyed lookup).
struct MachineState {
  std::map<ir::Symbol, uint64_t> Regs;
  std::vector<uint64_t> Mem; ///< size HeapCells + 1.

  static MachineState make(unsigned HeapCells) {
    MachineState S;
    S.Mem.assign(HeapCells + 1, 0);
    return S;
  }

  friend bool operator==(const MachineState &A, const MachineState &B) {
    return A.Regs == B.Regs && A.Mem == B.Mem;
  }
};

/// Executes a core program on a machine state. Unbound variables read as
/// zero-initialized registers (consistent with the circuit, where every
/// register starts at |0>).
///
/// The statement walk is an explicit worklist machine (the repo's
/// standard recursion discipline): each frame iterates one statement
/// list either forward or reversed, and a reversed frame executes each
/// primitive's inverse in place (Assign <-> UnAssign; the rest are
/// self-inverse), so With-block uncomputation needs neither C++
/// recursion nor a materialized I[s] clone. Depth-100k with-nesting
/// runs in O(1) C++ stack (pinned by interpreter_test).
class Interpreter {
public:
  Interpreter(const ir::CoreProgram &Program,
              const circuit::TargetConfig &Config)
      : Program(Program), Config(Config),
        CellBits(circuit::cellBitsFor(Program, Config)) {}

  /// Runs the whole program body on `State` in place. Returns false (with
  /// Error set) on an unsupported construct (H) or a failed un-assignment
  /// (the value did not restore to zero), which indicates a compiler bug.
  bool run(MachineState &State);

  /// Value of the output variable after run().
  uint64_t output(const MachineState &State) const;

  const std::string &error() const { return Error; }

private:
  bool execStmts(const ir::CoreStmtList &Stmts, MachineState &State);
  bool execAssign(const ir::CoreStmt &S, MachineState &State);
  bool execUnAssign(const ir::CoreStmt &S, MachineState &State);
  uint64_t evalExpr(const ir::CoreExpr &E, const MachineState &State) const;
  uint64_t evalAtom(const ir::Atom &A, const MachineState &State) const;
  uint64_t maskOf(const ast::Type *Ty) const;
  unsigned widthOf(const ast::Type *Ty) const {
    return Program.Types->bitWidth(Ty, Config.WordBits);
  }

  const ir::CoreProgram &Program;
  circuit::TargetConfig Config;
  unsigned CellBits;
  std::string Error;
  /// Live re-declaration depth per variable (see Interpreter.cpp).
  support::SymbolMap<unsigned> DeclCount;
};

/// Encodes a machine state onto the compiled circuit's qubit layout
/// (inputs and memory; all other qubits zero).
BitString encodeState(const MachineState &State,
                      const circuit::CircuitLayout &Layout);

/// Reads the register/memory contents back from circuit qubits. Only the
/// given named registers are decoded.
MachineState decodeState(const BitString &Bits,
                         const circuit::CircuitLayout &Layout,
                         const std::vector<std::string> &Names);

} // namespace spire::sim

#endif // SPIRE_SIM_INTERPRETER_H
