// Precondition and invariant checking helpers.
//
// `expects` guards public-interface preconditions and throws
// std::invalid_argument so that misuse is reported to the caller;
// `ensure` guards internal invariants and throws std::logic_error,
// signalling a bug in this library rather than in the caller.
//
// A call with a string literal picks the `const char*` overload, which
// builds the exception's message only when the check fails, so a passing
// check costs one branch — cheap enough for per-step and per-draw paths.
// The throw itself is a cold out-of-line call, so an inlined check adds a
// compare and a call to its caller, not an exception construction that
// would count against the caller's inlining budget.  The `std::string`
// overload serves messages composed at the call site.
#pragma once

#include <stdexcept>
#include <string>

namespace pp {

namespace detail {

[[noreturn, gnu::cold, gnu::noinline]] inline void throw_invalid_argument(
    const char* what) {
  throw std::invalid_argument(what);
}

[[noreturn, gnu::cold, gnu::noinline]] inline void throw_logic_error(
    const char* what) {
  throw std::logic_error(what);
}

}  // namespace detail

// Throw std::invalid_argument with `what` unless `condition` holds.
inline void expects(bool condition, const char* what) {
  if (!condition) [[unlikely]] detail::throw_invalid_argument(what);
}
inline void expects(bool condition, const std::string& what) {
  if (!condition) [[unlikely]] throw std::invalid_argument(what);
}

// Throw std::logic_error with `what` unless `condition` holds.
inline void ensure(bool condition, const char* what) {
  if (!condition) [[unlikely]] detail::throw_logic_error(what);
}
inline void ensure(bool condition, const std::string& what) {
  if (!condition) [[unlikely]] throw std::logic_error(what);
}

}  // namespace pp
