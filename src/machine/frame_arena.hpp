// FrameArena — a recycling bump allocator for coroutine frames.
//
// Machine::run allocates one SimTask frame per thread at launch plus one
// SubTask frame per device-subroutine call mid-run; on barrier-heavy
// workloads that malloc/free traffic — and the cache misses of resuming
// heap-scattered frames — bounds the engine (docs/PERF.md "Measured
// trajectory").  The engine therefore activates an arena for the span of
// a run via FrameArena::Scope; the class-level operator new of the
// promise types (machine/task.hpp) takes every frame from the active
// arena, and operator delete pushes an arena frame onto the per-size
// LIFO free list of the arena that issued it.  allocate() pops from that
// list before it bumps, so a run holds only its live frames (threads x
// subroutine depth), not one frame per subroutine call it made.  reset()
// at the start of the next run drops the lists and rewinds the bump
// pointer.
//
// Contract:
//  * An arena is single-threaded.  The thread that activates it performs
//    every allocation and deallocation: each Machine owns one and
//    activates it only for the span of its own run, on the thread that
//    runs it, so an arena is never used by two threads at once.
//  * reset() may only run while no frame allocated from the arena is
//    alive.  The engine guarantees this: it owns every SimTask of a run
//    (frames die with the Engine), and it resets the arena at run start,
//    before any frame of the new run exists.
//  * An arena outlives its frames: deleting a frame writes to the free
//    list of the arena that issued it.
//  * Frames constructed while NO arena is active — unit tests building
//    SimTask/SubTask coroutines directly — fall back to global
//    new/delete.  A header in front of every frame records the issuing
//    arena (null for global new) and the block size, so any frame can be
//    destroyed at any time, in any order, whichever arena is current.
//  * Under AddressSanitizer a free block stays poisoned, apart from its
//    first kAlignment bytes (the free-list link; for a frame, its
//    header), until allocate() hands it out again, and reset() unpoisons
//    every chunk.  Resuming a SubTask after its frame was freed is then
//    an ASan report, not a silent read of a recycled frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

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
  // a thread-local, and every frame header points at its arena.
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  /// A block of `bytes` (rounded up to a multiple of kAlignment, at
  /// least one): the most recently freed block of that size, else a
  /// fresh bump allocation.  Chunks survive reset(), so a warmed arena
  /// allocates nothing from the system.
  void* allocate(std::size_t bytes) {
    const std::size_t need = block_size(bytes);
    FreeList& list = list_for(need);
    void* p = nullptr;
    if (FreeBlock* block = list.head) {
      list.head = block->next;
      unpoison(block, need);
      p = block;
    } else {
      p = bump(need);
    }
    bytes_in_use_ += need;
    ++allocations_;
    return p;
  }

  /// Return `p`, a block allocate(bytes) issued since the last reset(),
  /// to the free list of its size.
  void deallocate(void* p, std::size_t bytes) noexcept {
    const std::size_t need = block_size(bytes);
    for (FreeList& list : free_lists_) {
      if (list.bytes != need) continue;
      list.head = ::new (p) FreeBlock{list.head};
      poison(static_cast<std::byte*>(p) + kAlignment, need - kAlignment);
      bytes_in_use_ -= need;
      return;
    }
    // No list for this size: the block was issued before the last
    // reset(), against the contract; it waits for the next reset().
  }

  /// Rewind to empty and drop the free lists, KEEPING every chunk for
  /// reuse.  Precondition: no frame allocated from this arena is still
  /// alive (see file comment).
  void reset() {
    for (const Chunk& c : chunks_) unpoison(c.data.get(), c.size);
    free_lists_.clear();
    active_ = 0;
    offset_ = 0;
    bytes_in_use_ = 0;
    allocations_ = 0;
  }

  // ---- stats (tests, benchmarks) ---------------------------------------
  /// Bytes of the blocks currently handed out (freed blocks excluded).
  std::size_t bytes_in_use() const { return bytes_in_use_; }
  /// allocate() calls since the last reset(), recycled blocks included.
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
  // Each frame is preceded by a kAlignment-sized FrameHeader naming the
  // arena that issued it and the block size, so deallocate_frame needs
  // no thread-local state: a frame outliving the scope that created it
  // (the normal case — frames die with the Engine, after Engine::run's
  // scope closed) returns to its own arena.

  static void* allocate_frame(std::size_t size) {
    const std::size_t total = size + kAlignment;
    FrameArena* arena = current_;
    void* base = arena != nullptr ? arena->allocate(total)
                                  : ::operator new(total);
    ::new (base) FrameHeader{arena, total};
    return static_cast<std::byte*>(base) + kAlignment;
  }

  static void deallocate_frame(void* frame) noexcept {
    if (frame == nullptr) return;
    std::byte* base = static_cast<std::byte*>(frame) - kAlignment;
    const FrameHeader header =
        *std::launder(reinterpret_cast<FrameHeader*>(base));
    if (header.arena != nullptr) {
      header.arena->deallocate(base, header.bytes);
    } else {
      ::operator delete(base);
    }
  }

 private:
  struct FrameHeader {
    FrameArena* arena;  ///< issuing arena; nullptr: global new
    std::size_t bytes;  ///< block size, header included
  };
  static_assert(sizeof(FrameHeader) <= kAlignment);

  /// The link a free block holds in its first bytes.
  struct FreeBlock {
    FreeBlock* next;
  };
  struct FreeList {
    std::size_t bytes;  ///< block size this list serves
    FreeBlock* head;
  };
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  /// Whole kAlignment units, at least one: room for a free block's link.
  static constexpr std::size_t block_size(std::size_t bytes) {
    return bytes <= kAlignment ? kAlignment
                               : (bytes + kAlignment - 1) & ~(kAlignment - 1);
  }

  /// The free list for blocks of `bytes`, created on first use.  A run
  /// allocates a handful of frame sizes, so a linear scan wins.
  FreeList& list_for(std::size_t bytes) {
    for (FreeList& list : free_lists_) {
      if (list.bytes == bytes) return list;
    }
    return free_lists_.emplace_back(FreeList{bytes, nullptr});
  }

  void* bump(std::size_t need) {
    for (;;) {
      if (active_ < chunks_.size()) {
        Chunk& chunk = chunks_[active_];
        if (chunk.size - offset_ >= need) {
          void* p = chunk.data.get() + offset_;
          offset_ += need;
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

  static void poison([[maybe_unused]] const void* p,
                     [[maybe_unused]] std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
    __asan_poison_memory_region(p, bytes);
#endif
  }
  static void unpoison([[maybe_unused]] const void* p,
                       [[maybe_unused]] std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
    __asan_unpoison_memory_region(p, bytes);
#endif
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::vector<FreeList> free_lists_;  ///< one per block size seen
  std::size_t active_ = 0;   ///< index of the chunk being bumped
  std::size_t offset_ = 0;   ///< bump offset within the active chunk
  std::size_t bytes_in_use_ = 0;
  std::size_t allocations_ = 0;

  inline static thread_local FrameArena* current_ = nullptr;
};

}  // namespace hmm
