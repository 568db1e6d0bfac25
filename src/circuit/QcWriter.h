//===----------------------------------------------------------------------===//
///
/// \file
/// Emission of circuits in the `.qc` format of Mosca [2016], the output
/// format of the Tower compiler (Section 7) and the input format of the
/// Feynman circuit toolkit.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_CIRCUIT_QCWRITER_H
#define SPIRE_CIRCUIT_QCWRITER_H

#include "circuit/Compiler.h"

#include <string>

namespace spire::support {
class OutputSink;
}

namespace spire::circuit {

/// Writes a circuit as `.qc` text into \p Out. Qubits are named
/// q0..qN-1; the layout, when provided, marks program inputs and the
/// output register in the .i and .o lines. Emission stops early when
/// the sink stops (a failed target or a tripped output cap).
void writeQc(const Circuit &C, const CircuitLayout *Layout,
             support::OutputSink &Out);

/// writeQc into a string.
std::string writeQc(const Circuit &C, const CircuitLayout *Layout = nullptr);

} // namespace spire::circuit

#endif // SPIRE_CIRCUIT_QCWRITER_H
