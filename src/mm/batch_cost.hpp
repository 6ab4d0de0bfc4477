// Pipeline-stage pricing of a warp's request batch — the heart of the
// difference between the DMM and the UMM (§II).
//
//  * DMM:  requests going to the same bank serialise; a batch costs
//          max_b |{distinct addresses in bank b}| stages.  Requests to the
//          *same address* merge for free (broadcast read / arbitrary
//          write), per the paper's same-address rule.
//  * UMM:  the single address line broadcasts one address-group id per
//          stage; a batch costs |{distinct address groups}| stages.
//
// Both costs are computed after merging duplicate addresses.  An empty
// batch costs 0 stages (the warp is not dispatched).
//
// Two implementations coexist:
//
//  * the HOT PATH — `profile_batch(geom, batch, scratch)` — a single
//    O(batch) stamped counting pass over epoch-versioned scratch tables;
//    it allocates nothing once the tables are warm and never sorts.  The
//    engine owns one `BatchCostScratch` per memory port and reuses it for
//    every round of a run;
//  * the REFERENCE — `profile_batch_reference` — the original sort+unique
//    formulation, kept as the executable specification.  Tests cross-check
//    the stamped pass against it on randomized batches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "mm/geometry.hpp"
#include "mm/request.hpp"

namespace hmm {

/// Diagnostic breakdown of a batch used by tests, the Fig. 3/Fig. 4
/// benches and the bank-conflict explorer example.
struct BatchProfile {
  std::int64_t distinct_addresses = 0;
  std::int64_t dmm_stages = 0;       ///< max per-bank distinct addresses
  std::int64_t umm_stages = 0;       ///< distinct address groups
  std::int64_t hottest_bank = -1;    ///< smallest bank achieving dmm_stages
  std::int64_t touched_banks = 0;    ///< banks with >= 1 distinct address

  friend bool operator==(const BatchProfile&, const BatchProfile&) = default;
};

/// Reusable epoch-versioned scratch tables for the stamped counting pass.
/// One instance serves any sequence of batches and geometries; tables grow
/// (amortised) to the largest address/width seen and are "cleared" between
/// batches by bumping a 64-bit epoch, never by touching memory.
class BatchCostScratch {
 public:
  BatchCostScratch() = default;

  /// Bytes currently held by the tables (diagnostics only).  Every
  /// scratch table the stamped pass owns must be enumerated here — a
  /// static_assert in batch_cost.cpp pins sizeof(BatchCostScratch) so
  /// adding a member without updating this sum fails to compile.
  std::size_t footprint_bytes() const {
    return addr_epoch_.capacity() * sizeof(std::uint64_t) +   // 1: addresses
           group_epoch_.capacity() * sizeof(std::uint64_t) +  // 2: groups
           bank_epoch_.capacity() * sizeof(std::uint64_t) +   // 3: banks
           bank_count_.capacity() * sizeof(std::int64_t);     // 4: counts
  }

 private:
  friend BatchProfile profile_batch(const MemoryGeometry& geom,
                                    std::span<const Request> batch,
                                    BatchCostScratch& scratch);

  std::uint64_t epoch_ = 0;                 // bumped once per batch
  std::vector<std::uint64_t> addr_epoch_;   // indexed by address
  std::vector<std::uint64_t> group_epoch_;  // indexed by address group
  std::vector<std::uint64_t> bank_epoch_;   // indexed by bank (< width)
  std::vector<std::int64_t> bank_count_;    // distinct addresses per bank
};

/// Full profile of one batch in a single allocation-free counting pass.
/// This is the engine's hot path; `scratch` must outlive the call and may
/// be reused across batches and geometries.
BatchProfile profile_batch(const MemoryGeometry& geom,
                           std::span<const Request> batch,
                           BatchCostScratch& scratch);

/// Reference implementation (sort + unique, as in the seed): the
/// executable specification the stamped pass is tested against.
BatchProfile profile_batch_reference(const MemoryGeometry& geom,
                                     std::span<const Request> batch);

/// Full profile of one batch under a given geometry.  Convenience entry
/// point for tests, benches and examples; delegates to the reference
/// implementation (no scratch needed, but allocates and sorts).
BatchProfile profile_batch(const MemoryGeometry& geom,
                           std::span<const Request> batch);

/// Stages a batch occupies in a DMM (shared-memory) pipeline:
/// the maximum number of distinct addresses that map to one bank.
std::int64_t dmm_batch_stages(const MemoryGeometry& geom,
                              std::span<const Request> batch);

/// Stages a batch occupies in a UMM (global-memory) pipeline:
/// the number of distinct address groups touched.
std::int64_t umm_batch_stages(const MemoryGeometry& geom,
                              std::span<const Request> batch);

}  // namespace hmm
