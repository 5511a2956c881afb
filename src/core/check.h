// Lightweight invariant checking.
//
// DL_CHECK guards preconditions of the public API.  Violations are programmer
// errors, not runtime conditions, so we abort with a message rather than
// throwing: per the C++ Core Guidelines (I.5, E.12), interfaces state their
// preconditions and misuse is not an expected error path.  Recoverable
// runtime errors go through core::Status instead (see docs/robustness.md).
//
// In release builds (NDEBUG defined) DL_CHECK compiles to a no-op so hot
// paths pay nothing for their precondition guards -- e.g. the
// noise-test check inside LinkSystem::NoiseFactor runs on every naive
// affectance evaluation of the tests/oracles references.  The default ("Assert") build type of the
// root CMakeLists keeps the checks on, and the tier-1 test suite (including
// the robustness death-tests) runs against that configuration.
//
// Contract (both build types):
//   * `cond` is evaluated at most once, and never under NDEBUG -- like
//     assert(), the condition must not have side effects the program
//     relies on.
//   * Under NDEBUG both `cond` and `msg` stay inside unevaluated sizeof
//     operands: no codegen, but every variable they mention still counts
//     as used, so the -Wall -Wextra -Wshadow -Wconversion -Werror tier
//     (see DECAYLIB_WERROR in the root CMakeLists) passes identically in
//     Assert and Release builds.
//   * The failure branch is marked [[unlikely]] so the hot path carries
//     only a predicted-untaken test in Assert builds.
#pragma once

#ifdef NDEBUG

// sizeof keeps both operands unevaluated (no codegen, no side effects)
// while still marking every mentioned variable as used, so a parameter
// referenced only by its precondition check does not become
// -Wunused-parameter fallout in Release builds.
#define DL_CHECK(cond, msg)          \
  do {                               \
    (void)sizeof((cond) ? 1 : 0);    \
    (void)sizeof((msg));             \
  } while (false)

#else  // !NDEBUG

#include <cstdio>
#include <cstdlib>

// decay-lint: allowlist-file(status-io) -- DL_CHECK is the one sanctioned
// abort path for programmer errors; everything else uses core::Status.
#define DL_CHECK(cond, msg)                                               \
  do {                                                                    \
    if (!(cond)) [[unlikely]] {                                           \
      std::fprintf(stderr, "DL_CHECK failed at %s:%d: %s\n  %s\n",        \
                   __FILE__, __LINE__, #cond, msg);                       \
      std::abort();                                                       \
    }                                                                     \
  } while (false)

#endif  // NDEBUG
