//===----------------------------------------------------------------------===//
///
/// \file
/// Pipeline-wide static verification — the LLVM-verifier analogue for
/// Spire. Three checkers, all pure functions over stage artifacts:
///
///  * IR verification (verifyProgram): structural and scoping invariants
///    of lowered core IR — def-before-use over interned Symbols, with/do
///    pairing symmetry, reversibility well-formedness (no self-referential
///    re-definition, if-conditions never modified under their own body),
///    and no dangling symbols. The checks mirror exactly the contract the
///    circuit backend asserts in debug builds, so a program that verifies
///    cannot trip the emitter's unbound-variable or control-collision
///    assertions. Implemented as an explicit worklist walker (the repo's
///    standard recursion discipline: O(1) C++ stack at any nesting depth).
///
///  * Circuit verification (verifyCircuit / verifyNetlist): gate and
///    netlist well-formedness — operand ranges, control-list ordering,
///    target/control distinctness, and the wire-linked netlist's full
///    link-pool integrity (Netlist::checkIntegrity promoted from a unit
///    test helper to a stage-boundary check).
///
///  * Affine-parity analysis (analyzeParity): abstract interpretation of
///    the X/CNOT(/effectively-singly-controlled MCX) fragment in the
///    GF(2) affine domain: every wire's value is tracked as an XOR subset
///    of the initial wire values plus a constant, or Top past the affine
///    fragment (H, true multi-controlled X). On this domain the analysis
///    *proves* — for every input, not per sampled basis state — that
///    ancilla wires return to |0> at circuit exit, and flags gates that
///    are statically dead (a control provably |0>). Everything past the
///    fragment is soundly reported as Unknown, never as Clean.
///
/// All three run at stage boundaries behind `spirec --verify-each`
/// (driver::PipelineOptions::VerifyEach) and feed the user-facing
/// `spirec --analyze` lint mode.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_ANALYSIS_ANALYSIS_H
#define SPIRE_ANALYSIS_ANALYSIS_H

#include "circuit/Compiler.h"
#include "circuit/Gate.h"
#include "circuit/Target.h"
#include "ir/Core.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <string>
#include <vector>

namespace spire::circuit {
class Netlist;
}

namespace spire::analysis {

//===----------------------------------------------------------------------===//
// Violations and reports
//===----------------------------------------------------------------------===//

/// One invariant violation. `Checker` names the layer that found it
/// ("ir", "circuit", "parity") so tests can assert a mutation is caught
/// by exactly the intended checker; `Where` positions it inside the
/// artifact ("stmt #12", "gate #3", "wire 7").
struct Violation {
  const char *Checker = "ir";
  std::string Where;
  std::string Message;

  /// Renders as "ir: stmt #12: message".
  std::string str() const;
};

/// The result of one verification pass: empty means the artifact upholds
/// every invariant the checker knows.
struct VerifyReport {
  std::vector<Violation> Violations;
  /// Set when the checker stopped recording after MaxViolations; the
  /// artifact has at least one more problem than the list shows.
  bool Truncated = false;

  static constexpr size_t MaxViolations = 64;

  bool ok() const { return Violations.empty(); }
  /// All violations, one per line; empty string when ok().
  std::string str() const;
  /// Reports every violation as an error diagnostic, prefixed with
  /// `Context` (typically the pipeline stage or pass name).
  void reportTo(support::DiagnosticEngine &Diags, const char *Context) const;
  /// Appends another report's violations (used to combine checkers).
  void merge(VerifyReport Other);
  /// True when any violation came from `Checker`.
  bool has(const char *Checker) const;
};

//===----------------------------------------------------------------------===//
// IR verification
//===----------------------------------------------------------------------===//

/// Verifies the structural and scoping invariants of a lowered core
/// program (see file header). `Config` supplies the word width used for
/// register-width agreement checks, matching what compileToCircuit would
/// use. Runs on an explicit worklist: safe on 100k-deep with-nesting.
VerifyReport verifyProgram(const ir::CoreProgram &P,
                           const circuit::TargetConfig &Config = {});

//===----------------------------------------------------------------------===//
// Circuit and netlist verification
//===----------------------------------------------------------------------===//

/// Verifies gate well-formedness over a flat circuit: every operand
/// within NumQubits, control lists sorted and deduplicated (the Gate
/// representation invariant), and no target repeating a control. When
/// `CheckNetlist` is set it additionally builds the wire-linked netlist
/// and runs its exhaustive link-pool integrity check, so a corrupted
/// builder or splice surfaces at the same boundary.
VerifyReport verifyCircuit(const circuit::Circuit &C,
                           bool CheckNetlist = true);

/// The netlist leg of verifyCircuit alone, for callers holding a live
/// Netlist mid-optimization (LIFO unlink/restore discipline violations
/// show up here as broken links).
VerifyReport verifyNetlist(const circuit::Netlist &N);

//===----------------------------------------------------------------------===//
// Affine-parity ancilla-cleanness analysis
//===----------------------------------------------------------------------===//

/// What the analysis may assume and must prove about each wire.
struct CleanSpec {
  unsigned NumQubits = 0;
  /// Wire starts in |0> (everything except program inputs and qRAM
  /// memory, which start at caller-chosen basis states).
  std::vector<bool> StartsZero;
  /// Wire must provably return to |0> at circuit exit: ancillas and
  /// released registers, but not inputs, memory, the declared output,
  /// leaked temporaries, or the intentionally-|1> alloc ancilla.
  std::vector<bool> RequireClean;

  /// No assumptions, no obligations: dead-gate flagging and exit-parity
  /// reporting still run, cleanness is all Unknown-or-better with no
  /// violations. For circuits with no layout (interchange input).
  static CleanSpec allUnknown(unsigned NumQubits);

  /// Derives the spec from a compiled circuit's layout. `CircuitQubits`
  /// may exceed Layout.NumQubits: the extra wires are decomposition /
  /// legalization ancillas, which start |0> and must return clean.
  static CleanSpec forLayout(const circuit::CircuitLayout &Layout,
                             unsigned CircuitQubits);
};

/// Exit classification of one wire under the affine-parity domain.
enum class Cleanness : uint8_t {
  Clean,   ///< Provably |0> at exit for every input.
  Dirty,   ///< Provably nonzero at exit for some input (a compiler bug
           ///< when the wire is RequireClean).
  Unknown, ///< Left the affine fragment; no claim (sound default).
};

struct ParityResult {
  /// Per-wire exit classification relative to |0>.
  std::vector<Cleanness> WireExit;
  /// Per-wire exit value rendered over initial wire values: "0", "1",
  /// "q3", "q0^q7^1", or "?" for Top. Two circuits computing the same
  /// function render identical strings on wires both analyses track —
  /// the differential hook the qopt fuzz loop uses.
  std::vector<std::string> WireParity;
  /// Indices of statically-dead gates (a control — or, for diagonal
  /// phase gates, the target — provably |0> on every input).
  std::vector<size_t> DeadGates;
  /// Gates whose transfer left the affine fragment (H, X with >= 2
  /// statically-unresolved controls).
  size_t NonAffineGates = 0;
  /// Dirty violations on RequireClean wires.
  VerifyReport Report;

  bool fullyAffine() const { return NonAffineGates == 0; }
  size_t count(Cleanness C) const;
};

/// Runs the affine-parity abstract interpretation over `C` under `Spec`.
/// O(gates * wires/64) bitset work; linear in practice.
ParityResult analyzeParity(const circuit::Circuit &C, const CleanSpec &Spec);

} // namespace spire::analysis

#endif // SPIRE_ANALYSIS_ANALYSIS_H
