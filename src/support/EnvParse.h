//===- support/EnvParse.h - Validated environment parsing -------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One validated parse for every DAECC_* environment knob and the bench
/// drivers' integer flags. The contract is the one BenchOptions::parse
/// established: a value that is set but malformed is a hard configuration
/// error (exit 2), never a silent fall-back to the default — a sweep that
/// exported DAECC_JOBS=8x and silently ran sequentially would mislabel its
/// own results. Unset variables return the caller's default.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SUPPORT_ENVPARSE_H
#define DAECC_SUPPORT_ENVPARSE_H

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace dae {
namespace support {

/// Strict positive integer: \p Value parsed for the setting \p Name (a flag
/// such as --jobs, or a variable such as DAECC_JOBS). Garbage (non-numeric,
/// trailing junk, zero, negative, or out of range for unsigned — strtoll
/// saturates on overflow, and a saturated or too-wide value truncated
/// through the cast would silently misconfigure, e.g. DAECC_JOBS=4294967297
/// reading as 1) exits 2 with a diagnostic naming the setting.
inline unsigned parseUnsignedOrExit(const char *Name, const char *Value) {
  char *End = nullptr;
  errno = 0;
  long long N = std::strtoll(Value, &End, 10);
  if (End == Value || *End != '\0' || errno == ERANGE || N <= 0 ||
      N > static_cast<long long>(std::numeric_limits<unsigned>::max())) {
    std::fprintf(stderr,
                 "error: invalid %s value '%s' (expected a positive "
                 "integer)\n",
                 Name, Value);
    std::exit(2);
  }
  return static_cast<unsigned>(N);
}

/// Strict positive integer from the environment: unset returns \p Default,
/// anything else goes through parseUnsignedOrExit.
inline unsigned envUnsignedOr(const char *Name, unsigned Default) {
  const char *Env = std::getenv(Name);
  return Env ? parseUnsignedOrExit(Name, Env) : Default;
}

/// Strict boolean from the environment, accepting only "0" and "1". Unset
/// returns \p Default; anything else ("true", "yes", "2", "") exits 2 — the
/// historical `Env[0] == '1'` parse silently read DAECC_DAE_VERIFY=true as
/// *off*, the exact inversion of what the user asked for.
inline bool envBool01Or(const char *Name, bool Default) {
  const char *Env = std::getenv(Name);
  if (!Env)
    return Default;
  if (std::strcmp(Env, "0") == 0)
    return false;
  if (std::strcmp(Env, "1") == 0)
    return true;
  std::fprintf(stderr, "error: invalid %s value '%s' (expected 0 or 1)\n",
               Name, Env);
  std::exit(2);
}

} // namespace support
} // namespace dae

#endif // DAECC_SUPPORT_ENVPARSE_H
