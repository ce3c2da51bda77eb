//===- support/Rational.h - Exact rational arithmetic -----------*- C++ -*-===//
//
// Part of daecc, a reproduction of "Fix the code. Don't tweak the hardware"
// (CGO 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An exact rational number over 64-bit integers, with 128-bit intermediates
/// and always-on overflow checking. The polyhedral library (Fourier-Motzkin,
/// vertex enumeration, convex hulls) is built on this type; loop nests in the
/// paper are depth <= 3 with small coefficients, so 64 bits of reduced
/// magnitude is ample in practice. When a reduced result does not fit,
/// arithmetic throws RationalOverflow in every build type — callers that make
/// guard decisions from lattice-point counts (the section 5.1.2 hull test)
/// must catch it and fail safe rather than act on a wrapped value.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SUPPORT_RATIONAL_H
#define DAECC_SUPPORT_RATIONAL_H

#include <cstdint>
#include <stdexcept>
#include <string>

namespace dae {

/// Thrown when a rational result's reduced magnitude exceeds 64 bits.
/// Checked unconditionally (not an assert): a silently wrapped lattice-point
/// count would flip the hull-vs-skeleton guard without any diagnostic.
class RationalOverflow : public std::overflow_error {
public:
  RationalOverflow()
      : std::overflow_error(
            "rational arithmetic overflow: reduced magnitude exceeds 64 bits") {
  }
};

/// Exact rational p/q with q > 0 and gcd(p, q) == 1.
class Rational {
public:
  Rational() : Num(0), Den(1) {}
  Rational(std::int64_t N) : Num(N), Den(1) {}
  Rational(std::int64_t N, std::int64_t D);

  std::int64_t num() const { return Num; }
  std::int64_t den() const { return Den; }

  bool isZero() const { return Num == 0; }

  /// Largest integer <= value.
  std::int64_t floor() const;
  /// Smallest integer >= value.
  std::int64_t ceil() const;

  Rational operator-() const;
  Rational operator+(const Rational &R) const;
  Rational operator-(const Rational &R) const;
  Rational operator*(const Rational &R) const;
  Rational operator/(const Rational &R) const;

  Rational &operator+=(const Rational &R) { return *this = *this + R; }
  Rational &operator-=(const Rational &R) { return *this = *this - R; }
  Rational &operator*=(const Rational &R) { return *this = *this * R; }
  Rational &operator/=(const Rational &R) { return *this = *this / R; }

  bool operator==(const Rational &R) const {
    return Num == R.Num && Den == R.Den;
  }
  bool operator!=(const Rational &R) const { return !(*this == R); }
  bool operator<(const Rational &R) const;
  bool operator<=(const Rational &R) const { return !(R < *this); }
  bool operator>(const Rational &R) const { return R < *this; }
  bool operator>=(const Rational &R) const { return !(*this < R); }

  /// Renders as "p" or "p/q".
  std::string str() const;

private:
  std::int64_t Num;
  std::int64_t Den;
};

/// Greatest common divisor of |A| and |B|; gcd(0, 0) == 0.
std::int64_t gcd64(std::int64_t A, std::int64_t B);

} // namespace dae

#endif // DAECC_SUPPORT_RATIONAL_H
