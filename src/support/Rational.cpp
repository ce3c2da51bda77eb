//===- support/Rational.cpp - Exact rational arithmetic -------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Rational.h"

#include <cassert>
#include <cstdlib>

using namespace dae;

namespace {

/// Narrows a 128-bit intermediate back to 64 bits. Throws RationalOverflow
/// when the value does not fit — unconditionally, in every build type, so a
/// wrapped lattice-point count can never silently steer a hull decision.
std::int64_t narrow(__int128 V) {
  if (V > INT64_MAX || V < INT64_MIN)
    throw RationalOverflow();
  return static_cast<std::int64_t>(V);
}

} // namespace

std::int64_t dae::gcd64(std::int64_t A, std::int64_t B) {
  if (A < 0)
    A = -A;
  if (B < 0)
    B = -B;
  while (B != 0) {
    std::int64_t T = A % B;
    A = B;
    B = T;
  }
  return A;
}

Rational::Rational(std::int64_t N, std::int64_t D) {
  assert(D != 0 && "rational with zero denominator");
  if (D < 0) {
    N = -N;
    D = -D;
  }
  std::int64_t G = gcd64(N, D);
  if (G > 1) {
    N /= G;
    D /= G;
  }
  Num = N;
  Den = D == 0 ? 1 : D;
}

std::int64_t Rational::floor() const {
  if (Num >= 0)
    return Num / Den;
  return -((-Num + Den - 1) / Den);
}

std::int64_t Rational::ceil() const {
  if (Num >= 0)
    return (Num + Den - 1) / Den;
  return -((-Num) / Den);
}

Rational Rational::operator-() const {
  Rational R;
  R.Num = -Num;
  R.Den = Den;
  return R;
}

Rational Rational::operator+(const Rational &R) const {
  __int128 N = static_cast<__int128>(Num) * R.Den +
               static_cast<__int128>(R.Num) * Den;
  __int128 D = static_cast<__int128>(Den) * R.Den;
  // Reduce in 128 bits before narrowing so transient magnitudes cancel.
  __int128 A = N < 0 ? -N : N, B = D;
  while (B != 0) {
    __int128 T = A % B;
    A = B;
    B = T;
  }
  if (A > 1) {
    N /= A;
    D /= A;
  }
  return Rational(narrow(N), narrow(D));
}

Rational Rational::operator-(const Rational &R) const { return *this + (-R); }

Rational Rational::operator*(const Rational &R) const {
  // Cross-reduce first to keep intermediates small.
  std::int64_t G1 = gcd64(Num, R.Den);
  std::int64_t G2 = gcd64(R.Num, Den);
  __int128 N = static_cast<__int128>(Num / G1) * (R.Num / G2);
  __int128 D = static_cast<__int128>(Den / G2) * (R.Den / G1);
  return Rational(narrow(N), narrow(D));
}

Rational Rational::operator/(const Rational &R) const {
  assert(!R.isZero() && "rational division by zero");
  return *this * Rational(R.Den, R.Num);
}

bool Rational::operator<(const Rational &R) const {
  return static_cast<__int128>(Num) * R.Den <
         static_cast<__int128>(R.Num) * Den;
}

std::string Rational::str() const {
  if (Den == 1)
    return std::to_string(Num);
  return std::to_string(Num) + "/" + std::to_string(Den);
}
