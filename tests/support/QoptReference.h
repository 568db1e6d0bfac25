//===----------------------------------------------------------------------===//
///
/// \file
/// Test oracles for the circuit-optimizer passes: the straightforward
/// pre-netlist implementations of cancellation (copy-and-compact rounds)
/// and phase folding (std::map parity table, no support cap). They share
/// no helpers with src/qopt/Passes.cpp beyond the public gatesCommute
/// rules, so a bug in a pass's internals cannot hide in its oracle.
/// qopt_equiv_test pits the passes against them, and bench_qopt_scale
/// uses them as its measured "before" and its output check. They live
/// in a test-support library, not in libspire.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_TESTS_QOPTREFERENCE_H
#define SPIRE_TESTS_QOPTREFERENCE_H

#include "qopt/Passes.h"

namespace spire::qopt {

/// Adjacent-inverse cancellation by repeated full scans: each round
/// removes every pair found within `Options.MaxLookahead` commuting gates,
/// then compacts the circuit, for at most `Options.MaxRounds` rounds.
circuit::Circuit cancelAdjacentGatesReference(const circuit::Circuit &C,
                                              const CancelOptions &Options);

/// Phase folding over an ordered map from exact parity vectors to
/// accumulators. Gate-for-gate identical to phaseFold whenever no parity
/// outgrows phaseFold's support cap.
circuit::Circuit phaseFoldReference(const circuit::Circuit &C);

} // namespace spire::qopt

#endif // SPIRE_TESTS_QOPTREFERENCE_H
