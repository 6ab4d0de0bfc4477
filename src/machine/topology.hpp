// Machine shape: how many DMMs, how many threads on each, warp layout.
#pragma once

#include <numeric>
#include <vector>

#include "core/error.hpp"
#include "core/mathutil.hpp"
#include "core/types.hpp"

namespace hmm {

/// Static shape of a machine run: d DMMs with p_j threads each, warp
/// width w.  Threads of DMM j are the global ids
/// [sum(p_0..p_{j-1}), sum(p_0..p_j)), partitioned into warps of w
/// consecutive local ids (the last warp of a DMM may be partial).
class Topology {
 public:
  Topology(std::int64_t width, std::vector<std::int64_t> threads_per_dmm)
      : width_(width), threads_per_dmm_(std::move(threads_per_dmm)) {
    HMM_REQUIRE(width_ >= 1, "topology: width must be >= 1");
    HMM_REQUIRE(!threads_per_dmm_.empty(), "topology: need >= 1 DMM");
    for (std::int64_t p : threads_per_dmm_) {
      HMM_REQUIRE(p >= 1, "topology: every DMM needs >= 1 thread");
    }
    thread_base_.resize(threads_per_dmm_.size() + 1, 0);
    warp_base_.resize(threads_per_dmm_.size() + 1, 0);
    for (std::size_t j = 0; j < threads_per_dmm_.size(); ++j) {
      thread_base_[j + 1] = thread_base_[j] + threads_per_dmm_[j];
      warp_base_[j + 1] = warp_base_[j] + ceil_div(threads_per_dmm_[j], width_);
    }
  }

  std::int64_t width() const { return width_; }
  std::int64_t num_dmms() const {
    return static_cast<std::int64_t>(threads_per_dmm_.size());
  }
  std::int64_t threads_on(DmmId j) const {
    return threads_per_dmm_[checked(j)];
  }
  std::int64_t total_threads() const { return thread_base_.back(); }
  std::int64_t total_warps() const { return warp_base_.back(); }
  std::int64_t warps_on(DmmId j) const {
    return warp_base_[checked(j) + 1] - warp_base_[checked(j)];
  }

  /// First global thread id of DMM j.
  ThreadId first_thread(DmmId j) const { return thread_base_[checked(j)]; }
  /// First global warp id of DMM j.
  WarpId first_warp(DmmId j) const { return warp_base_[checked(j)]; }

 private:
  std::size_t checked(DmmId j) const {
    HMM_REQUIRE(j >= 0 && j < num_dmms(), "DMM id out of range");
    return static_cast<std::size_t>(j);
  }

  std::int64_t width_;
  std::vector<std::int64_t> threads_per_dmm_;
  std::vector<std::int64_t> thread_base_;  // prefix sums, size d+1
  std::vector<std::int64_t> warp_base_;    // prefix sums, size d+1
};

}  // namespace hmm
