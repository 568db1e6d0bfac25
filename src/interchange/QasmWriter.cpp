#include "interchange/QasmWriter.h"

#include "support/FileIO.h"

#include <cstring>

namespace spire::interchange {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using circuit::Qubit;

namespace {

/// `q[a..b]` for a register slice (inclusive), or `q[a]` when one wide.
void writeRange(support::OutputSink &Out, const support::NameTable &Names,
                const circuit::BitRange &R) {
  if (R.Width == 1) {
    Out.write(Names[R.Offset]);
    return;
  }
  Out.write("q[");
  Out.writeDecimal(R.Offset);
  Out.write("..");
  Out.writeDecimal(R.Offset + R.Width - 1);
  Out.write("]");
}

/// Base gate name for a kind with no controls.
const char *baseName(GateKind K) {
  switch (K) {
  case GateKind::X:
    return "x";
  case GateKind::H:
    return "h";
  case GateKind::T:
    return "t";
  case GateKind::Tdg:
    return "tdg";
  case GateKind::S:
    return "s";
  case GateKind::Sdg:
    return "sdg";
  case GateKind::Z:
    return "z";
  }
  return "?";
}

/// The stdgates alias that absorbs one or two controls, or nullptr when
/// the kind has none (S/Sdg/T/Tdg).
const char *aliasName(GateKind K, unsigned NumControls) {
  switch (K) {
  case GateKind::X:
    return NumControls == 1 ? "cx" : NumControls == 2 ? "ccx" : nullptr;
  case GateKind::H:
    return NumControls == 1 ? "ch" : nullptr;
  case GateKind::Z:
    return NumControls == 1 ? "cz" : nullptr;
  default:
    return nullptr;
  }
}

void writeGate(support::OutputSink &Out, const support::NameTable &Names,
               const Gate &G) {
  unsigned NumControls = G.numControls();
  const char *Alias = aliasName(G.Kind, NumControls);
  if (NumControls != 0 && !Alias) {
    Out.write("ctrl");
    if (NumControls > 1) {
      Out.write("(");
      Out.writeDecimal(NumControls);
      Out.write(")");
    }
    Out.write(" @ ");
  }
  std::string_view Name = Alias ? Alias : baseName(G.Kind);
  // The line's bound: the name and its space, a full name slot plus
  // ", " per operand, and the closing ";\n".
  char *P = Out.reserve(Name.size() + 1 +
                        (support::NameTable::MaxBytes + 2) *
                            (NumControls + 1));
  if (!P) {
    // Stopped, or too wide for the sink's buffer: piecewise.
    Out.write(Name);
    Out.write(" ");
    for (Qubit C : G.Controls) {
      Out.write(Names[C]);
      Out.write(", ");
    }
    Out.write(Names[G.Target]);
    Out.write(";\n");
    return;
  }
  std::memcpy(P, Name.data(), Name.size());
  P += Name.size();
  *P++ = ' ';
  for (Qubit C : G.Controls) {
    P = Names.copy(P, C);
    *P++ = ',';
    *P++ = ' ';
  }
  P = Names.copy(P, G.Target);
  *P++ = ';';
  *P++ = '\n';
  Out.advance(P);
}

} // namespace

void writeQasm3(const Circuit &C, const circuit::CircuitLayout *Layout,
                support::OutputSink &Out) {
  const support::NameTable Names(C.NumQubits, "q[", "]");
  Out.write("OPENQASM 3.0;\n"
            "include \"stdgates.inc\";\n");
  if (Layout) {
    for (const auto &[Name, R] : Layout->Inputs) {
      Out.write("// input ");
      Out.write(Name);
      Out.write(": ");
      writeRange(Out, Names, R);
      Out.write("\n");
    }
    Out.write("// output: ");
    writeRange(Out, Names, Layout->Output);
    Out.write("\n");
  }
  // OpenQASM has no zero-width registers; an empty circuit is just the
  // header (and readQasm3 accepts a program with no declaration back).
  if (C.NumQubits != 0) {
    Out.write("qubit[");
    Out.writeDecimal(C.NumQubits);
    Out.write("] q;\n");
  }
  for (const Gate &G : C.Gates) {
    if (Out.stopped())
      return;
    writeGate(Out, Names, G);
  }
}

std::string writeQasm3(const Circuit &C,
                       const circuit::CircuitLayout *Layout) {
  std::string Text;
  support::StringSink Out(Text);
  writeQasm3(C, Layout, Out);
  Out.flush();
  return Text;
}

} // namespace spire::interchange
