//===----------------------------------------------------------------------===//
///
/// \file
/// Exact polynomial interpolation over consecutive integer sample points.
///
/// Reproduces the paper's Section 8.1 methodology: "we repeated the process
/// for depths from 2 to 10 and found the lowest-degree polynomial that
/// exactly fits the T-complexities". Fitting uses Newton forward differences
/// over exact rationals, so results like Table 3's (3076192/3) d^3 term are
/// represented without rounding.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_SUPPORT_POLYFIT_H
#define SPIRE_SUPPORT_POLYFIT_H

#include "support/Rational.h"

#include <cstdint>
#include <string>
#include <vector>

namespace spire::support {

/// A polynomial with exact rational coefficients, stored in ascending
/// degree order (Coeffs[k] multiplies x^k).
struct Polynomial {
  std::vector<Rational> Coeffs;

  /// Degree of the polynomial; the zero polynomial has degree 0.
  int degree() const;

  /// Exact evaluation at an integer point.
  Rational evaluate(int64_t X) const;

  /// Renders in the paper's style, descending degree, e.g.
  /// "15722n^2+19292n+3934" or "(3076192/3)d^3+5099374d^2".
  std::string str(const std::string &Var = "n") const;
};

/// Interpolates the lowest-degree polynomial through the samples
/// (StartX, Values[0]), (StartX+1, Values[1]), ... exactly.
///
/// The result's difference table is checked so that trailing zero
/// differences lower the reported degree, matching "lowest-degree
/// polynomial that exactly fits". Requires at least one sample.
Polynomial fitPolynomial(int64_t StartX, const std::vector<int64_t> &Values);

/// Convenience: degree of the fitted polynomial, i.e. the empirically
/// observed asymptotic order of a gate-count series.
int fittedDegree(int64_t StartX, const std::vector<int64_t> &Values);

} // namespace spire::support

#endif // SPIRE_SUPPORT_POLYFIT_H
