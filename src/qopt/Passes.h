//===----------------------------------------------------------------------===//
///
/// \file
/// Circuit-optimizer baselines standing in for the third-party optimizers
/// of the paper's Section 8.3 (see DESIGN.md §2 for the mapping):
///
///  * cancelAdjacentGates — commutation-aware cancellation of adjacent
///    inverse gate pairs. Run at the MCX/Toffoli level it captures the
///    effect of conditional flattening (Feynman -mctExpand; paper §8.5:
///    "Feynman -mctExpand first cancels Toffoli gates in the circuit
///    before translating them to Clifford+T gates"); run at the
///    Clifford+T level it is the Qiskit/Pytket-style peephole that cannot
///    cancel the asymmetric decomposition of Fig. 17.
///  * phaseFold — phase-polynomial rotation merging (Nam et al. 2018),
///    the mechanism behind VOQC / Feynman -toCliffordT's intermediate
///    results: merges T rotations applied to equal wire parities across
///    unbounded gate ranges, cut at Hadamard gates.
///  * searchRewrite — a bounded-window, wall-clock-limited rewrite search
///    standing in for the Quartz/QUESO superoptimizers (Appendix G):
///    partial improvement that plateaus, bounded only by its timeout (or
///    by its stale-round early exit once it reaches a fixpoint).
///
/// Cancellation runs over a circuit::Netlist (per-wire doubly-linked
/// gate sequences) as a worklist-driven fixpoint with no per-round
/// circuit copies; phase folding keys a flat open-addressed parity table
/// on an incrementally maintained hash. The straightforward
/// implementations they replaced are test oracles in
/// tests/support/QoptReference.h, outside this library.
///
/// Every pass is semantics-preserving; the test suite verifies this by
/// simulation on random basis states.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_QOPT_PASSES_H
#define SPIRE_QOPT_PASSES_H

#include "circuit/Gate.h"
#include "obs/Metrics.h"

#include <cstdint>

namespace spire::qopt {

/// Work counters of a pass run, accumulated across passes when one
/// OptStats is threaded through a whole optimizer configuration. The
/// driver surfaces these next to the qopt stage's wall-clock timing and
/// publishes them as `qopt.*` registry metrics.
///
/// The fields are relaxed atomics (obs::AtomicCounter) so one OptStats
/// could be shared by concurrent pass runs without a merge step (no
/// thread pool runs them today; sharded qopt is deferred); the hot loops
/// accumulate plain locals and flush once per pass, so single-threaded
/// cost is unchanged.
struct OptStats {
  obs::AtomicCounter CancelledPairs;   ///< Inverse pairs removed by cancellation.
  obs::AtomicCounter CancelPasses;     ///< Full fixpoint passes (last finds nothing).
  obs::AtomicCounter WorklistVisits;   ///< Gates popped off the cancel worklist.
  obs::AtomicCounter MergedRotations;  ///< Phase gates absorbed by folding.
  obs::AtomicCounter EmittedRotations; ///< Phase gates re-emitted after folding.
};

struct CancelOptions {
  /// How far past commuting gates to search for a cancelling partner.
  /// Small values model peephole optimizers; ~0 lookahead beyond direct
  /// adjacency models the weakest ones. Use Unbounded for the expensive
  /// exhaustive configuration (the QuiZX stand-in).
  unsigned MaxLookahead = 128;
  static constexpr unsigned Unbounded = ~0u;
  /// Safety cap on fixpoint iterations: full copy-and-compact rounds in
  /// the reference implementation, full worklist re-seed passes in the
  /// netlist one. The worklist's neighbor re-enqueue cascades removals
  /// within a pass, so it typically reaches a true fixpoint in two
  /// passes (the second finding nothing) and the cap only bounds
  /// adversarial inputs.
  unsigned MaxRounds = 64;

  static CancelOptions peephole() { return {8, 8}; }
  static CancelOptions standard() { return {128, 64}; }
  static CancelOptions exhaustive() { return {Unbounded, 1024}; }
};

/// Cancels pairs of identical self-inverse gates (X-kind, H, Z) and
/// adjacent inverse phase pairs (T/Tdg, S/Sdg) separated only by
/// commuting gates. Works at any circuit level.
///
/// Runs as a worklist fixpoint over a wire-linked netlist: a cancelled
/// pair is unlinked in O(1) and its wire-neighbors re-enqueued, so there
/// are no per-round circuit copies. The partner search is wire-indexed:
/// it walks only the gates sharing a wire with the visited gate, and a
/// bounded lookahead examines such a gate only while its live rank after
/// the visited one (every live gate in between counts, shared wire or
/// not) is at most max(1, MaxLookahead); a Fenwick tree over cancelled
/// ids answers the rank. The cost is O(visited gates x shared-wire gates
/// within the lookahead) rather than O(visited gates x lookahead).
circuit::Circuit cancelAdjacentGates(const circuit::Circuit &C,
                                     const CancelOptions &Options,
                                     OptStats *Stats = nullptr);

/// Rotation merging over wire parities (phase folding). Expects a
/// Clifford+T-level circuit; multiply-controlled X gates and CH are
/// treated as parity barriers for their targets. Each merged rotation is
/// re-emitted at its first contribution's site, so the output is fully
/// determined by the input.
///
/// Parity supports are capped at max(64, 2 x qubits): an oversized
/// parity degrades to an opaque fresh variable — the same conservative
/// give-up as an H barrier, so merging is lost but soundness is not.
/// Rotation accumulators keep their parities in one flat arena behind an
/// open-addressed table keyed by an incrementally maintained hash (exact
/// comparison on a hash match), and CNOTs edit wire parities in place
/// through one reused buffer. The pass is linear-expected in the gate
/// count, and its heap allocations depend on the qubit count and the
/// logarithm of the number of distinct parities, not on the gate count.
circuit::Circuit phaseFold(const circuit::Circuit &C,
                           OptStats *Stats = nullptr);

/// Consecutive no-improvement rounds searchRewrite tolerates before
/// exiting early.
inline constexpr unsigned StaleRoundLimit = 3;

/// Search-based optimization under a wall-clock budget: repeated
/// small-window cancellation, phase merging, and randomized commuting
/// reorderings, keeping the best circuit found. Exits before the
/// deadline after StaleRoundLimit consecutive rounds with no cancellation
/// and no T-count improvement (a fixpoint the random transpositions are
/// not escaping); until then it runs the full budget. Deterministic for
/// a fixed seed whenever it exits via the stale-round check rather than
/// the wall clock.
struct SearchOptions {
  double TimeoutSeconds = 1.0;
  unsigned WindowSize = 16;
  uint64_t Seed = 1;
};
circuit::Circuit searchRewrite(const circuit::Circuit &C,
                               const SearchOptions &Options);

/// True when gates A and B commute under the conservative syntactic rules
/// used by the passes (exposed for testing). Gates touching disjoint
/// qubit sets always commute under these rules — the property that lets
/// the netlist passes skip them entirely.
bool gatesCommute(const circuit::Gate &A, const circuit::Gate &B);

} // namespace spire::qopt

#endif // SPIRE_QOPT_PASSES_H
