#include "support/PolyFit.h"

#include <cassert>

namespace spire::support {

int Polynomial::degree() const {
  for (int K = static_cast<int>(Coeffs.size()) - 1; K >= 0; --K)
    if (!Coeffs[K].isZero())
      return K;
  return 0;
}

Rational Polynomial::evaluate(int64_t X) const {
  // Horner evaluation from the top coefficient down.
  Rational Acc;
  for (int K = static_cast<int>(Coeffs.size()) - 1; K >= 0; --K)
    Acc = Acc * Rational(X) + Coeffs[K];
  return Acc;
}

std::string Polynomial::str(const std::string &Var) const {
  std::string Out;
  for (int K = degree(); K >= 0; --K) {
    if (K >= static_cast<int>(Coeffs.size()))
      continue;
    const Rational &C = Coeffs[K];
    if (C.isZero() && degree() != 0)
      continue;
    Rational Magnitude = C.isNegative() ? -C : C;
    if (Out.empty())
      Out += C.isNegative() ? "-" : "";
    else
      Out += C.isNegative() ? "-" : "+";
    std::string CoeffText = Magnitude.isInteger()
                                ? Magnitude.str()
                                : "(" + Magnitude.str() + ")";
    if (K == 0) {
      Out += CoeffText;
      continue;
    }
    // Omit a unit coefficient in front of the variable.
    if (!(Magnitude.isInteger() && Magnitude.asInteger() == 1))
      Out += CoeffText;
    Out += Var;
    if (K > 1)
      Out += "^" + std::to_string(K);
  }
  if (Out.empty())
    Out = "0";
  return Out;
}

Polynomial fitPolynomial(int64_t StartX, const std::vector<int64_t> &Values) {
  assert(!Values.empty() && "fitting requires at least one sample");

  // Forward-difference table: Diffs[k] holds the k-th differences.
  std::vector<std::vector<Rational>> Diffs;
  Diffs.emplace_back();
  for (int64_t V : Values)
    Diffs.back().emplace_back(V);
  while (Diffs.back().size() > 1) {
    const std::vector<Rational> &Prev = Diffs.back();
    std::vector<Rational> Next;
    for (size_t I = 0; I + 1 < Prev.size(); ++I)
      Next.push_back(Prev[I + 1] - Prev[I]);
    Diffs.push_back(std::move(Next));
  }

  // Newton forward form: p(x) = sum_k Diffs[k][0] * C(x - StartX, k).
  // Expand each falling-factorial binomial into monomial coefficients.
  size_t MaxOrder = Diffs.size() - 1;
  Polynomial Result;
  Result.Coeffs.assign(MaxOrder + 1, Rational());

  // Basis[j] holds the coefficient of x^j in prod_{i<k} (x - StartX - i) / k!
  std::vector<Rational> Basis = {Rational(1)};
  Rational Factorial(1);
  for (size_t K = 0; K <= MaxOrder; ++K) {
    if (K > 0) {
      // Multiply Basis by (x - StartX - (K - 1)).
      Rational Shift(-(StartX + static_cast<int64_t>(K) - 1));
      std::vector<Rational> Next(Basis.size() + 1, Rational());
      for (size_t J = 0; J != Basis.size(); ++J) {
        Next[J + 1] += Basis[J];
        Next[J] += Basis[J] * Shift;
      }
      Basis = std::move(Next);
      Factorial *= Rational(static_cast<int64_t>(K));
    }
    Rational Lead = Diffs[K][0] / Factorial;
    if (Lead.isZero())
      continue;
    for (size_t J = 0; J != Basis.size(); ++J)
      Result.Coeffs[J] += Lead * Basis[J];
  }

  // Trim trailing zero coefficients so degree() reports the minimal fit.
  while (Result.Coeffs.size() > 1 && Result.Coeffs.back().isZero())
    Result.Coeffs.pop_back();
  return Result;
}

int fittedDegree(int64_t StartX, const std::vector<int64_t> &Values) {
  return fitPolynomial(StartX, Values).degree();
}

} // namespace spire::support
