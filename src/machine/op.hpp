// The operations a simulated thread can suspend on.
//
// A thread program is a C++20 coroutine (see task.hpp); every co_await
// hands one Op to the engine, which prices it under the model's timing
// rules and resumes the thread when the operation completes.
#pragma once

#include "core/types.hpp"

namespace hmm {

/// Which memory an access targets.  A standalone DMM owns only a shared
/// memory, a standalone UMM only a global memory; the HMM has both
/// (per-DMM shared memories + one global memory, §III).
enum class MemorySpace : std::uint8_t { kShared, kGlobal };

/// Synchronisation domain of a barrier.
enum class BarrierScope : std::uint8_t {
  kDmm,      ///< all live warps of the issuing thread's DMM
  kMachine,  ///< all live warps of the whole machine
};

/// One suspended operation.  The three one-byte fields lead, so an Op
/// is 32 bytes: one sits in every simulated thread's state.
struct Op {
  enum class Kind : std::uint8_t {
    kNone,      ///< no operation pending (engine-internal resting state)
    kRead,      ///< read one word
    kWrite,     ///< write one word
    kCompute,   ///< local RAM work of `cycles` time units
    kBarrier,   ///< wait out `cycles` releases of the barrier of `scope`
    kWarpSync,  ///< reconverge the lanes of this warp (free)
  };

  Kind kind = Kind::kNone;
  MemorySpace space = MemorySpace::kShared;  // for kRead/kWrite
  BarrierScope scope = BarrierScope::kDmm;   // for kBarrier
  Address address = 0;                       // for kRead/kWrite
  Word value = 0;                            // for kWrite
  Cycle cycles = 0;  // for kCompute; for kBarrier, the releases left
};

}  // namespace hmm
