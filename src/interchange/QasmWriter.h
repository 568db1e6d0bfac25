//===----------------------------------------------------------------------===//
///
/// \file
/// Emission of circuits as OpenQASM 3 — the interchange format that makes
/// compiled Tower programs consumable by mainstream quantum toolchains
/// (Qiskit, Braket, QIRs qasm importers, ...), complementing the `.qc`
/// emitter of the Feynman toolkit dialect (circuit/QcWriter).
///
/// The emitter covers the full circuit::GateKind set:
///
///   X    0 controls `x`, 1 `cx`, 2 `ccx`, k>2 `ctrl(k) @ x`
///   H    0 controls `h`, 1 `ch`,          k>1 `ctrl(k) @ h`
///   Z    0 controls `z`, 1 `cz`,          k>1 `ctrl(k) @ z`
///   S/Sdg/T/Tdg   `s`/`sdg`/`t`/`tdg`, controls via `ctrl(k) @`
///
/// using only `stdgates.inc` names plus the standard `ctrl` modifier, so
/// the output needs no custom gate definitions. Qubits live in a single
/// register `q[N]`; the wire layout, when provided, is recorded as
/// comments (`// input xs: q[0..7]`) since OpenQASM has no standard
/// marker for reversible-circuit I/O registers.
///
/// readQasm3 maps every spelling emitted here back to the exact gate it
/// came from, so write -> read is the structural identity and the text
/// form is a fixpoint (QasmRoundTrip tests pin both).
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_INTERCHANGE_QASMWRITER_H
#define SPIRE_INTERCHANGE_QASMWRITER_H

#include "circuit/Compiler.h"

#include <string>

namespace spire::support {
class OutputSink;
}

namespace spire::interchange {

/// Writes a circuit as OpenQASM 3 text into \p Out. The layout, when
/// provided, is emitted as `// input` / `// output` comments over the
/// `q` register. Emission stops early when the sink stops (a failed
/// target or a tripped output cap).
void writeQasm3(const circuit::Circuit &C,
                const circuit::CircuitLayout *Layout,
                support::OutputSink &Out);

/// writeQasm3 into a string.
std::string writeQasm3(const circuit::Circuit &C,
                       const circuit::CircuitLayout *Layout = nullptr);

} // namespace spire::interchange

#endif // SPIRE_INTERCHANGE_QASMWRITER_H
