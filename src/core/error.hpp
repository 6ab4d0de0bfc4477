// Error handling for hmm-sim.
//
// Following C++ Core Guidelines I.6/E.x we validate preconditions of the
// public API with checks that stay enabled in release builds (simulation
// results are meaningless if the model parameters are invalid, so the
// cost of the checks -- all outside inner loops -- is worth it).
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace hmm {

/// Thrown when a caller violates a documented precondition of the public
/// API (e.g. a non-positive width, a thread count not divisible by the
/// number of DMMs where an algorithm requires it).  `what()` is the
/// message alone: the tools print it and the daemon sends it to clients,
/// so it names neither the failed expression nor a source location.
class PreconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when the simulator detects an internal inconsistency.  Seeing
/// this exception always indicates a bug in hmm-sim itself, so `what()`
/// names the failed expression and where it was checked.
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown by the engine's no-progress watchdog: a round completed with
/// zero warps resumable and zero requests in flight, i.e. every
/// unfinished warp is parked at a barrier that can never release
/// (mismatched barrier calls or scopes).  The message lists the blocked
/// warps and the state of every barrier domain; `hmmsim` maps it to its
/// own exit code so silent hangs become actionable failures.
class DeadlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

[[noreturn]] void throw_precondition(const std::string& msg);
[[noreturn]] void throw_internal(const char* expr, const std::string& msg,
                                 std::source_location loc);

}  // namespace detail

}  // namespace hmm

/// Validate a documented precondition of a public entry point.
#define HMM_REQUIRE(expr, msg)                                      \
  do {                                                              \
    if (!(expr)) ::hmm::detail::throw_precondition((msg));          \
  } while (false)

/// Validate an internal invariant of the simulator.
#define HMM_ASSERT(expr, msg)                                       \
  do {                                                              \
    if (!(expr)) {                                                  \
      ::hmm::detail::throw_internal(#expr, (msg),                   \
                                    std::source_location::current());     \
    }                                                               \
  } while (false)
