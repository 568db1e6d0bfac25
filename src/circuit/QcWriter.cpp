#include "circuit/QcWriter.h"

#include "support/FileIO.h"

#include <cstring>

namespace spire::circuit {

namespace {

/// Writes the names of the \p Width qubits from \p Offset on.
void writeRange(support::OutputSink &Out, const support::NameTable &Names,
                Qubit Offset, unsigned Width) {
  for (unsigned I = 0; I != Width; ++I)
    Out.write(Names[Offset + I]);
}

/// A gate mnemonic padded to a fixed-size copy.
struct Mnemonic {
  char Text[4];
  size_t Len;
};

/// Every line is the gate mnemonic followed by its operands, controls
/// first and target last (Mosca's convention: `tof` with k operands
/// covers NOT, CNOT, Toffoli, and larger MCX uniformly; multi-operand
/// `Z` is the dialect's controlled-Z). Controlled S/T, which only
/// OpenQASM import can produce, has no spelling in the dialect: the
/// operands are emitted anyway so the text is *rejected* on re-import
/// rather than silently losing its controls — legalize onto a basis
/// before emitting .qc.
Mnemonic mnemonic(const Gate &G) {
  switch (G.Kind) {
  case GateKind::X:
    return {"tof", 3};
  case GateKind::H:
    return G.Controls.empty() ? Mnemonic{"H", 1} : Mnemonic{"CH", 2};
  case GateKind::T:
    return {"T", 1};
  case GateKind::Tdg:
    return {"T*", 2};
  case GateKind::S:
    return {"S", 1};
  case GateKind::Sdg:
    return {"S*", 2};
  case GateKind::Z:
    return {"Z", 1};
  }
  return {"?", 1};
}

} // namespace

void writeQc(const Circuit &C, const CircuitLayout *Layout,
             support::OutputSink &Out) {
  const support::NameTable Names(C.NumQubits, " q", "");
  Out.write(".v");
  writeRange(Out, Names, 0, C.NumQubits);
  Out.write("\n");

  if (Layout) {
    Out.write(".i");
    for (const auto &[Name, R] : Layout->Inputs)
      writeRange(Out, Names, R.Offset, R.Width);
    Out.write("\n.o");
    writeRange(Out, Names, Layout->Output.Offset, Layout->Output.Width);
    Out.write("\n");
  }

  Out.write("\nBEGIN\n");
  for (const Gate &G : C.Gates) {
    const Mnemonic M = mnemonic(G);
    // The line's bound: the padded mnemonic, a full name slot per
    // operand, and the newline.
    char *P = Out.reserve(sizeof(M.Text) +
                          support::NameTable::MaxBytes *
                              (G.Controls.size() + 1) +
                          1);
    if (!P) {
      if (Out.stopped())
        return;
      // Too wide for the sink's buffer: piecewise.
      Out.write(std::string_view(M.Text, M.Len));
      for (Qubit Q : G.Controls)
        Out.write(Names[Q]);
      Out.write(Names[G.Target]);
      Out.write("\n");
      continue;
    }
    std::memcpy(P, M.Text, sizeof(M.Text));
    P += M.Len;
    for (Qubit Q : G.Controls)
      P = Names.copy(P, Q);
    P = Names.copy(P, G.Target);
    *P++ = '\n';
    Out.advance(P);
  }
  Out.write("END\n");
}

std::string writeQc(const Circuit &C, const CircuitLayout *Layout) {
  std::string Text;
  support::StringSink Out(Text);
  writeQc(C, Layout, Out);
  Out.flush();
  return Text;
}

} // namespace spire::circuit
