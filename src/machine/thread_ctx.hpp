// ThreadCtx — a simulated thread's view of the machine.
//
// One ThreadCtx exists per thread for the duration of a run; the kernel
// coroutine receives a reference to it and performs every model operation
// through it:
//
//   SimTask kernel(ThreadCtx& t) {
//     Word x = co_await t.read(MemorySpace::kGlobal, t.thread_id());
//     co_await t.compute();                      // one RAM time unit
//     co_await t.write(MemorySpace::kShared, 0, x);
//     co_await t.barrier();                      // DMM-wide sync
//   }
//
// IMPORTANT: every operation MUST be co_awaited before the next one is
// issued; issuing two ops without suspension is a programming error and
// raises PreconditionError (threads are RAMs with one outstanding memory
// request, §II).
//
// Allocation: the kernel coroutine's frame (and every SubTask frame it
// awaits) comes from the run's FrameArena — see machine/frame_arena.hpp
// for the contract and task.hpp for the operator new/delete wiring.
#pragma once

#include <coroutine>

#include "core/error.hpp"
#include "core/types.hpp"
#include "machine/op.hpp"

namespace hmm {

class Engine;

class ThreadCtx {
 public:
  // ---- identity --------------------------------------------------------
  ThreadId thread_id() const { return thread_id_; }     ///< machine-wide id
  ThreadId local_thread_id() const { return local_id_; }///< id within DMM
  DmmId dmm_id() const { return dmm_->dmm; }
  WarpId warp_id() const {                              ///< machine-wide
    return dmm_->first_warp + local_id_ / dmm_->width;
  }
  std::int64_t lane() const { return local_id_ % dmm_->width; } ///< in warp

  // ---- machine shape ---------------------------------------------------
  std::int64_t width() const { return dmm_->width; }
  std::int64_t num_dmms() const { return dmm_->num_dmms; }
  std::int64_t num_threads() const { return dmm_->num_threads; } ///< total p
  std::int64_t dmm_thread_count() const {                        ///< this DMM
    return dmm_->dmm_threads;
  }

  // ---- operations (all must be co_awaited) -----------------------------
  struct WordAwaiter {
    ThreadCtx* ctx;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const noexcept {
      ctx->leaf_ = h;  // the engine resumes the innermost coroutine
    }
    Word await_resume() const noexcept { return ctx->delivered_; }
  };
  struct VoidAwaiter {
    ThreadCtx* ctx;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const noexcept {
      ctx->leaf_ = h;
    }
    void await_resume() const noexcept {}
  };

  // Each op writes ONLY the mailbox fields the engine reads for its
  // kind; the rest keep whatever the previous op left there.  No
  // consumer looks at them (pricing fingerprints hash addresses and
  // access kinds, service() reads `value` for writes only, `cycles` is
  // read for computes and barriers only, `scope` for barriers only), and
  // posting three words instead of copying a zeroed Op keeps the resume
  // path — the engine's hottest loop — short.

  /// Read one word; resumes with the value once the access completes.
  WordAwaiter read(MemorySpace space, Address address) {
    check_idle();
    pending_.kind = Op::Kind::kRead;
    pending_.space = space;
    pending_.address = address;
    return WordAwaiter{this};
  }

  /// Write one word; resumes once the access completes.
  VoidAwaiter write(MemorySpace space, Address address, Word value) {
    check_idle();
    pending_.kind = Op::Kind::kWrite;
    pending_.space = space;
    pending_.address = address;
    pending_.value = value;
    return VoidAwaiter{this};
  }

  /// Perform `cycles` time units of local RAM work.
  VoidAwaiter compute(Cycle cycles = 1) {
    HMM_REQUIRE(cycles >= 1, "compute: cycles must be >= 1");
    check_idle();
    pending_.kind = Op::Kind::kCompute;
    pending_.cycles = cycles;
    return VoidAwaiter{this};
  }

  /// Synchronise with every live warp of the scope, `count` times:
  /// exactly `count` consecutive barrier(scope) calls with nothing
  /// between them, in one operation.  The thread resumes at the
  /// count-th release of its domain; the lanes of one warp may wait out
  /// different counts.  Timing, results and observer events are those
  /// of the `count` separate calls.
  VoidAwaiter barrier(BarrierScope scope = BarrierScope::kDmm,
                      std::int64_t count = 1) {
    HMM_REQUIRE(count >= 1, "barrier: count must be >= 1");
    check_idle();
    pending_.kind = Op::Kind::kBarrier;
    pending_.scope = scope;
    pending_.cycles = count;
    return VoidAwaiter{this};
  }

  /// Reconverge this warp's lanes (costs no time).  Lanes of one warp
  /// drift apart when data-dependent loop trip counts differ; any
  /// intra-warp communication through memory (without a full barrier)
  /// must warp_sync first — the model analogue of CUDA's __syncwarp().
  VoidAwaiter warp_sync() {
    check_idle();
    pending_.kind = Op::Kind::kWarpSync;
    return VoidAwaiter{this};
  }

 private:
  friend class Engine;

  /// The one-outstanding-op contract (§II: threads are RAMs with one
  /// pending request).  The engine clears `kind` when it resumes the
  /// thread, so a non-kNone kind here means the kernel issued two ops
  /// without co_awaiting in between.
  void check_idle() const {
    HMM_REQUIRE(pending_.kind == Op::Kind::kNone,
                "thread issued a new operation before co_awaiting the "
                "previous one");
  }

  /// What every thread of one DMM shares.  The engine owns one per DMM
  /// for the run, so a thread's identity is two ids and a pointer: the
  /// 48,128-thread machine presets hold one ThreadCtx per thread.
  struct DmmIdentity {
    DmmId dmm = 0;
    WarpId first_warp = 0;
    std::int64_t width = 0;
    std::int64_t num_dmms = 0;
    std::int64_t num_threads = 0;
    std::int64_t dmm_threads = 0;
  };

  // identity (set by the engine at launch; a machine has < 2^31 threads)
  std::int32_t thread_id_ = 0;
  std::int32_t local_id_ = 0;
  const DmmIdentity* dmm_ = nullptr;

  // engine <-> thread mailbox
  Op pending_;
  Word delivered_ = 0;
  std::coroutine_handle<> leaf_;  ///< innermost suspended coroutine
};

}  // namespace hmm
