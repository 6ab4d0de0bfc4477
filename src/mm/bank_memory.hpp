// Word-addressed banked storage behind a DMM or UMM pipeline.
//
// Functionally the memory is a flat array of words; the banked structure
// matters only for timing, which batch_cost prices from the geometry
// before a batch is served.
//
// Same-address semantics within one serviced batch (§II):
//  * reads of one address by several threads are a broadcast — all get
//    the same value at no extra cost;
//  * writes to one address by several threads: one arbitrary thread wins.
//    We deterministically pick the highest lane so simulations replay
//    identically.
//
// service() needs that arbitration only when two requests share an
// address.  The caller has already priced the batch, so it passes the
// batch's distinct-address count (BatchProfile::distinct_addresses) and
// service() picks one of two in-place branches:
//  * duplicate-free (count == batch size): every request is served on
//    its own — no two requests touch one cell, so any order is the
//    parallel step;
//  * anything else: the §II arbitration, pairwise scans over the batch
//    (linear on a broadcast read: there are no writes to scan).
// Delivered values go to a span the caller owns, so no branch allocates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/error.hpp"
#include "core/types.hpp"
#include "mm/geometry.hpp"
#include "mm/request.hpp"

namespace hmm {

class BankMemory {
 public:
  BankMemory(MemoryGeometry geometry, std::int64_t size);

  const MemoryGeometry& geometry() const { return geometry_; }
  std::int64_t size() const { return static_cast<std::int64_t>(cells_.size()); }

  /// Direct (zero-cost) access for loading inputs and reading outputs of
  /// a simulation; never use inside a timed kernel.
  Word peek(Address a) const;
  void poke(Address a, Word v);

  /// Bulk load starting at address `base`.
  void load(Address base, std::span<const Word> words);

  /// Bulk read of `count` words starting at `base`.
  std::vector<Word> dump(Address base, std::int64_t count) const;

  /// Apply one warp batch in place.  `distinct_addresses` must be the
  /// batch's distinct-address count (its BatchProfile's); `values` (one
  /// slot per request, owned by the caller) receives what each request
  /// delivers: the value read, or for a write the value that ended up
  /// stored.  Writes land after every read of the batch observed the
  /// pre-batch state, the highest lane winning per address.  Every
  /// address is checked before any cell changes.
  void service(std::span<const Request> batch, std::int64_t distinct_addresses,
               std::span<Word> values);

  // Lean accessors for the engine's verified replay path.  They bypass
  // service()'s batch machinery but must reproduce its effects exactly;
  // the replay path only uses them for batches it has proven are
  // duplicate-free (or all-read), where per-request service order is
  // irrelevant.  Addresses must be pre-validated against size().
  Word replay_read(Address a) const {
    return cells_[static_cast<std::size_t>(a)];
  }
  void replay_write(Address a, Word v) {
    cells_[static_cast<std::size_t>(a)] = v;
  }

 private:
  /// The §II arbitration for batches with a repeated address.
  void service_arbitrated(std::span<const Request> batch,
                          std::span<Word> values);

  MemoryGeometry geometry_;
  std::vector<Word> cells_;
};

}  // namespace hmm
