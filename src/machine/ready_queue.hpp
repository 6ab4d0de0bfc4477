// ReadyQueue — the engine's warp scheduling queue.
//
// A flat binary min-heap over (clock, warp_id), replacing the seed's
// node-allocating std::set<std::pair<Cycle, WarpId>>.  Every entry is
// unique (a warp is re-queued only after it has been popped), so the
// lexicographic (clock, warp_id) order is total and the heap pops in
// EXACTLY the order the set iterated: earliest clock first, ties broken
// by the smallest warp id.  That tie-break is what makes the round-robin
// arbitration of DESIGN.md §4 deterministic; tests/ready_queue_test.cpp
// locks it against a std::set oracle.
//
// The backing vector is reserved once (total_warps entries suffice), so
// scheduling performs zero allocations after launch.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/types.hpp"

namespace hmm {

class ReadyQueue {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  void reserve(std::size_t n) { heap_.reserve(n); }
  void clear() { heap_.clear(); }

  void push(Cycle clock, WarpId warp) {
    heap_.push_back(Entry{clock, warp});
    sift_up(heap_.size() - 1);
  }

  /// The minimum entry as (clock, warp), without removing it.  The
  /// engine's fused replay compares a warp's next round against this to
  /// prove the round would be the next pop anyway (see machine.cpp).
  std::pair<Cycle, WarpId> peek() const {
    HMM_ASSERT(!heap_.empty(), "peek at an empty ready queue");
    return {heap_.front().clock, heap_.front().warp};
  }

  /// Remove and return the minimum entry as (clock, warp).
  std::pair<Cycle, WarpId> pop() {
    HMM_ASSERT(!heap_.empty(), "pop from an empty ready queue");
    const Entry top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return {top.clock, top.warp};
  }

 private:
  struct Entry {
    Cycle clock;
    WarpId warp;
  };

  static bool before(const Entry& a, const Entry& b) {
    return a.clock != b.clock ? a.clock < b.clock : a.warp < b.warp;
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    // Moves one hole down instead of swapping, and picks the earlier
    // child arithmetically: the pop then compiles to the same branch-light
    // loop wherever it is inlined, rather than depending on how the
    // compiler if-converts it inside the caller (Engine::run's loop).
    const Entry moving = heap_[i];
    for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
      child += static_cast<std::size_t>(child + 1 < n &&
                                        before(heap_[child + 1], heap_[child]));
      if (!before(heap_[child], moving)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = moving;
  }

  std::vector<Entry> heap_;
};

}  // namespace hmm
