//===----------------------------------------------------------------------===//
///
/// \file
/// The interchange subsystem's front door: one enum naming every circuit
/// text format the compiler speaks, read/write dispatch over it, and
/// simulation-backed equivalence checking — the cross-format correctness
/// oracle that round-trip tests, the CLI's --check-equiv mode, and CI use
/// to prove that an exported circuit re-imports to the same behavior.
///
/// Formats:
///   Qc     the `.qc` dialect of the Feynman toolkit (circuit/QcReader,
///          circuit/QcWriter) — the paper's native output format.
///   Qasm3  the OpenQASM 3 subset of interchange/QasmReader and
///          interchange/QasmWriter.
///
/// Equivalence: the checker dispatches on circuit classification. X-only
/// (classical reversible) pairs — every compiled Tower program without
/// `h` — run through the bit-sliced batch simulator (sim::BitSliced),
/// 64 basis states per machine word: at or below ExhaustiveQubitLimit
/// common qubits the sweep covers *all* 2^n basis states (a proof,
/// reported Exhaustive), and above it the requested sample budget runs
/// as random 64-state blocks.
/// Anything with H or phase gates falls back to the sparse state-vector
/// simulator and sim::statesEquivalent (small circuits only). A circuit
/// with *more* qubits than the other (legalization adds ancillas) is
/// accepted when the extra wires start at |0> and return to |0>, which
/// is exactly the clean-ancilla contract of the decompose ladder.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_INTERCHANGE_INTERCHANGE_H
#define SPIRE_INTERCHANGE_INTERCHANGE_H

#include "circuit/Compiler.h"
#include "interchange/Legalize.h"
#include "support/Diagnostics.h"

#include <optional>
#include <string>
#include <string_view>

namespace spire::support {
class OutputSink;
}

namespace spire::interchange {

/// A circuit text format the compiler can read and write.
enum class Format {
  Qc,    ///< Feynman-toolkit `.qc` (the paper's Section 7 output).
  Qasm3, ///< OpenQASM 3 subset (docs/formats.md).
};

/// Short lower-case format name as spelled on the command line
/// ("qc" / "qasm3").
const char *formatName(Format F);

/// Parses an `--emit` format spelling (qc | qasm3).
std::optional<Format> formatFromName(const std::string &Name);

/// Guesses the format of circuit text: OpenQASM when the first
/// non-comment content is an `OPENQASM` / `include` / `qubit` line,
/// `.qc` otherwise. Used by --check-equiv, which accepts either.
Format detectFormat(std::string_view Text);

/// Writes a circuit in the format into \p Out. The layout, when
/// provided, marks the input/output registers (`.i`/`.o` lines in `.qc`,
/// comments in QASM).
void writeCircuit(const circuit::Circuit &C, Format F,
                  const circuit::CircuitLayout *Layout,
                  support::OutputSink &Out);

/// writeCircuit into a string.
std::string writeCircuit(const circuit::Circuit &C, Format F,
                         const circuit::CircuitLayout *Layout = nullptr);

/// Parses circuit text in the format. Returns std::nullopt and reports
/// diagnostics on malformed input.
std::optional<circuit::Circuit> readCircuit(std::string_view Text, Format F,
                                            support::DiagnosticEngine &Diags);

/// True when the circuit is classical reversible (X-kind gates only) —
/// the fragment the bit-sliced batch backend evaluates. Circuits with H
/// or phase gates take the state-vector path and cannot be checked
/// exhaustively.
bool isClassical(const circuit::Circuit &C);

/// X-only comparisons at or below this many common qubits are swept
/// exhaustively regardless of the sample budget: 2^20 states are only
/// 16384 bit-sliced blocks.
inline constexpr unsigned ExhaustiveQubitLimit = 20;

/// Outcome of an equivalence check over basis states.
struct EquivalenceReport {
  bool Equivalent = false;
  /// Whether the sweep covered every one of the narrower circuit's
  /// 2^qubits basis states — a proof over all inputs, not a sample.
  bool Exhaustive = false;
  /// Whether the bit-sliced batch backend ran the sweep (X-only pair);
  /// false means the sparse state-vector simulator did.
  bool BitSliced = false;
  /// Basis states actually evaluated (distinct states when Exhaustive).
  uint64_t StatesRun = 0;
  /// Wall-clock seconds of the sweep (states/sec = StatesRun/Seconds).
  double Seconds = 0;
  /// Human-readable mismatch description (empty when Equivalent).
  std::string Detail;
};

/// Everything that configures an equivalence check.
struct EquivalenceOptions {
  /// Basis-state budget for sampled sweeps. On the bit-sliced path it is
  /// rounded up to whole 64-state blocks; on every path it is clamped to
  /// the narrower circuit's 2^qubits distinct states, which upgrades the
  /// sweep to exhaustive enumeration (sampling draws with replacement,
  /// so on a small space it could miss the one differing state).
  unsigned Samples = 32;
  /// Seed of the deterministic SplitMix64 sample stream.
  uint64_t Seed = 0x5eedc1c5u;
  /// Validates the bit-sliced backend against the gate-at-a-time
  /// sim::runBasis interpreter, lane-for-lane on one state per 64-state
  /// block — the --verify-each hook. Any disagreement fails the check
  /// with a backend-divergence Detail.
  bool CrossCheck = false;
};

/// Checks that `A` and `B` act identically on basis states per the
/// dispatch described above (exhaustive bit-sliced sweep, batched
/// bit-sliced samples, or sparse state-vector samples; the all-zero
/// state is always among sampled states). Qubit-count differences are
/// tolerated per the ancilla contract described above.
EquivalenceReport checkEquivalence(const circuit::Circuit &A,
                                   const circuit::Circuit &B,
                                   const EquivalenceOptions &Opts);

/// Convenience overload with default exhaustive/cross-check settings.
EquivalenceReport checkEquivalence(const circuit::Circuit &A,
                                   const circuit::Circuit &B,
                                   unsigned Samples = 32,
                                   uint64_t Seed = 0x5eedc1c5u);

} // namespace spire::interchange

#endif // SPIRE_INTERCHANGE_INTERCHANGE_H
