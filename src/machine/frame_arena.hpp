// FrameArena — a monotonic bump allocator for coroutine frames.
//
// Machine::run allocates one SimTask frame per thread at launch plus one
// SubTask frame per device-subroutine call mid-run; on barrier-heavy
// workloads that malloc/free traffic — and the cache misses of resuming
// heap-scattered frames — bounds the engine (docs/PERF.md "Measured
// trajectory").  The engine therefore activates an arena for the span of
// a run via FrameArena::Scope; the class-level operator new of the
// promise types (machine/task.hpp) bump-allocates every frame from the
// active arena, and operator delete is a no-op for arena frames: the
// memory is reclaimed wholesale by reset() at the start of the next run.
//
// Contract:
//  * An arena is single-threaded.  The thread that activates it performs
//    every allocation: each Machine owns one, and a long-lived worker
//    may register one for its thread (RunScratch in machine.hpp), so
//    arenas never cross threads.
//  * reset() may only run while no frame allocated from the arena is
//    alive.  The engine guarantees this: it owns every SimTask of a run
//    (frames die with the Engine), and it resets the arena at run start,
//    before any frame of the new run exists.
//  * Frames constructed while NO arena is active — unit tests building
//    SimTask/SubTask coroutines directly — fall back to global
//    new/delete.  A tag header in front of every frame records which
//    path allocated it, so either kind of frame can be destroyed at any
//    time, in any order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace hmm {

class FrameArena {
 public:
  /// Every allocation is aligned to this; coroutine frames never demand
  /// more than the default operator-new alignment.
  static constexpr std::size_t kAlignment = alignof(std::max_align_t);
  static constexpr std::size_t kDefaultChunkBytes = std::size_t{1} << 16;

  explicit FrameArena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes < kAlignment ? kAlignment : chunk_bytes) {}

  // Non-copyable and non-movable: Scope registers the arena's address in
  // a thread-local, and machines hand out stable pointers to theirs.
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  /// Bump-allocate `bytes` (rounded up to kAlignment).  Chunks survive
  /// reset(), so a warmed arena allocates nothing from the system.
  void* allocate(std::size_t bytes) {
    const std::size_t need = align_up(bytes);
    for (;;) {
      if (active_ < chunks_.size()) {
        Chunk& chunk = chunks_[active_];
        if (chunk.size - offset_ >= need) {
          void* p = chunk.data.get() + offset_;
          offset_ += need;
          bytes_in_use_ += need;
          ++allocations_;
          return p;
        }
        ++active_;  // tail of this chunk is wasted until the next reset
        offset_ = 0;
        continue;
      }
      const std::size_t size = need > chunk_bytes_ ? need : chunk_bytes_;
      chunks_.push_back(Chunk{std::make_unique<std::byte[]>(size), size});
    }
  }

  /// Rewind to empty, KEEPING every chunk for reuse.  Precondition: no
  /// frame allocated from this arena is still alive (see file comment).
  void reset() {
    active_ = 0;
    offset_ = 0;
    bytes_in_use_ = 0;
    allocations_ = 0;
  }

  // ---- stats (tests, benchmarks) ---------------------------------------
  std::size_t bytes_in_use() const { return bytes_in_use_; }
  std::size_t allocations() const { return allocations_; }
  std::size_t chunk_count() const { return chunks_.size(); }
  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

  /// The arena active on this thread, or nullptr (global-new fallback).
  static FrameArena* current() { return current_; }

  /// RAII activation: makes `arena` (possibly nullptr) the current arena
  /// of this thread for the scope's lifetime, restoring the previous one
  /// on exit.  Scopes nest; Machine::run opens one around each run.
  class Scope {
   public:
    explicit Scope(FrameArena* arena) : previous_(current_) {
      current_ = arena;
    }
    ~Scope() { current_ = previous_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    FrameArena* previous_;
  };

  // ---- frame routing (machine/task.hpp promise operator new/delete) ----
  //
  // Each frame is preceded by a kAlignment-sized header whose first word
  // tags the allocation path, so deallocate_frame needs no thread-local
  // state: a frame outliving the scope that created it (the normal case
  // — frames die with the Engine, after Engine::run's scope closed) is
  // still routed correctly.

  static void* allocate_frame(std::size_t size) {
    const std::size_t total = size + kAlignment;
    std::byte* base;
    std::uintptr_t tag;
    if (FrameArena* arena = current_) {
      base = static_cast<std::byte*>(arena->allocate(total));
      tag = 1;
    } else {
      base = static_cast<std::byte*>(::operator new(total));
      tag = 0;
    }
    ::new (static_cast<void*>(base)) std::uintptr_t(tag);
    return base + kAlignment;
  }

  static void deallocate_frame(void* frame) noexcept {
    if (frame == nullptr) return;
    std::byte* base = static_cast<std::byte*>(frame) - kAlignment;
    if (*std::launder(reinterpret_cast<std::uintptr_t*>(base)) == 0) {
      ::operator delete(base);
    }
    // Arena frames: no-op; the memory returns with the next reset().
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  static constexpr std::size_t align_up(std::size_t bytes) {
    return (bytes + kAlignment - 1) & ~(kAlignment - 1);
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;   ///< index of the chunk being bumped
  std::size_t offset_ = 0;   ///< bump offset within the active chunk
  std::size_t bytes_in_use_ = 0;
  std::size_t allocations_ = 0;

  inline static thread_local FrameArena* current_ = nullptr;
};

}  // namespace hmm
