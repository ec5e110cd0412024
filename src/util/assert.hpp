#pragma once
// Checked invariants for the smartblocks library.
//
// These checks stay enabled in release builds: the library models a physical
// system whose safety invariants (connectivity, occupancy consistency) must
// never be silently violated, and the cost of the checks is negligible
// relative to event dispatch.

#include <cstdlib>
#include <sstream>
#include <string>

namespace sb {

/// Terminates the process after printing a diagnostic. Used by the SB_*
/// check macros; exposed so tests can exercise formatting via death tests.
[[noreturn]] void assert_fail(const char* kind, const char* expr,
                              const char* file, int line,
                              const std::string& message);

namespace detail {

/// Built only when a check fails. Kept out of line: inlined, it gives every
/// function that checks something an ostringstream stack frame, set up on
/// every call.
template <typename... Parts>
[[gnu::cold, gnu::noinline]] std::string concat_message(
    const Parts&... parts) {
  std::ostringstream os;
  ((os << parts), ...);
  return os.str();
}

}  // namespace detail

}  // namespace sb

#define SB_ASSERT_IMPL(kind, expr, ...)                               \
  do {                                                                \
    if (!(expr)) [[unlikely]] {                                       \
      ::sb::assert_fail(kind, #expr, __FILE__, __LINE__,              \
                        ::sb::detail::concat_message(__VA_ARGS__));   \
    }                                                                 \
  } while (0)

/// Invariant check (always enabled). Usage: SB_ASSERT(x > 0, "x was ", x)
/// or just SB_ASSERT(x > 0).
#define SB_ASSERT(...) SB_ASSERT_IMPL("assertion", __VA_ARGS__, "")

/// Precondition check on public API entry points.
#define SB_EXPECTS(...) SB_ASSERT_IMPL("precondition", __VA_ARGS__, "")

/// Postcondition check.
#define SB_ENSURES(...) SB_ASSERT_IMPL("postcondition", __VA_ARGS__, "")

/// Marks code paths that must never execute.
#define SB_UNREACHABLE(...)                                       \
  ::sb::assert_fail("unreachable", "SB_UNREACHABLE", __FILE__,    \
                    __LINE__, ::sb::detail::concat_message(__VA_ARGS__))
