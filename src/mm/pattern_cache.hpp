// Round-pattern memoization: a canonical fingerprint of a warp round's
// request batch plus a cache mapping fingerprint -> priced BatchProfile,
// so the engine can skip profile_batch entirely when a batch SHAPE it has
// already priced comes around again (which, for the periodic kernels of
// the paper — sum, prefix sums, convolution, stencil — is almost every
// round).
//
// Canonical key.  The BatchProfile of a batch is a function of the
// multiset of addresses only (lanes and access kinds never enter the
// pricing rules of §II), and every profile field is invariant under a
// uniform address translation by a multiple of the width w:
//
//   * banks:   bank_of(a + c·w) = bank_of(a)          — per-bank distinct
//              counts unchanged, so dmm_stages, hottest_bank and
//              touched_banks are preserved;
//   * groups:  group_of(a + c·w) = group_of(a) + c    — the group ids
//              shift uniformly, so the number of DISTINCT groups
//              (umm_stages) is preserved;
//   * distinct_addresses: translation is a bijection.
//
// The key is therefore (width, base mod w, address deltas in batch
// order) with base = the first request's address: two batches with equal
// keys have byte-identical profiles.  The fingerprint is FNV-1a 64 (the
// same constants as run/shard.cpp) folded over the key words; a lookup
// compares the FULL key on a fingerprint match, so a hash collision can
// never return a wrong profile — results are exact by construction, not
// by hash luck.  profile_batch stays the miss path and
// profile_batch_reference remains the oracle (tests cross-check the
// cache against it on randomized batches).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "mm/batch_cost.hpp"
#include "mm/geometry.hpp"
#include "mm/request.hpp"

namespace hmm {

/// FNV-1a 64 folded over 64-bit words (same offset basis / prime as the
/// byte-wise run::fnv1a64 the sweep manifests use).
inline std::uint64_t fnv1a64_words(std::span<const std::uint64_t> words) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t w : words) {
    h ^= w;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Both hashes of one batch, built in a single pass by
/// build_pattern_key.
struct PatternKeyInfo {
  /// Hash of the profile-determining key words (width, base mod w,
  /// deltas).  Pair it with the key itself for exact cache lookups.
  std::uint64_t cache_fp = 0;
  /// Translation-invariant SHAPE hash — deltas with access kinds folded
  /// in, but NOT base mod w — used by the engine's periodicity detector:
  /// two rounds of a striding loop hash equal even when the stride is
  /// not a multiple of w (the replay path re-verifies every address, so
  /// this hash only steers detection and can never corrupt results).
  std::uint64_t shape_fp = 0;
};

/// Serialize `batch` into its canonical profile key (appended to `key`,
/// which is cleared first) and return both fingerprints.
PatternKeyInfo build_pattern_key(const MemoryGeometry& geom,
                                 std::span<const Request> batch,
                                 std::vector<std::uint64_t>& key);

/// Exact-keyed profile cache.  Open hashing over the cache fingerprint;
/// every probe memcmps the full key words, so distinct keys never alias.
/// One instance may serve any sequence of batches, geometries and runs
/// (every Machine owns one, which all its runs share); it is NOT
/// thread-safe — never use one from two threads at once.
class PatternCache {
 public:
  PatternCache() = default;

  /// Profile lookup; fills `out` and returns true on a hit.  `fp`/`key`
  /// must come from build_pattern_key.  Counts a hit or a miss.
  bool find(std::uint64_t fp, std::span<const std::uint64_t> key,
            BatchProfile& out);

  /// Insert the priced profile for a key that `find` just missed.
  /// Inserting a key twice is harmless (first entry wins on lookup) but
  /// wasteful; the engine never does.
  void insert(std::uint64_t fp, std::span<const std::uint64_t> key,
              const BatchProfile& profile);

  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  std::size_t size() const { return entries_.size(); }

  /// Drop every entry (counters included).  Capacity is kept.
  void clear();

  /// Bytes currently held by the table, the entries and the key arena
  /// (diagnostics only, same contract as BatchCostScratch).
  std::size_t footprint_bytes() const;

 private:
  struct Entry {
    std::uint64_t fp = 0;
    std::uint32_t key_offset = 0;  ///< into key_words_
    std::uint32_t key_len = 0;     ///< words
    std::int32_t next = -1;        ///< bucket chain
    BatchProfile profile;
  };

  void rehash(std::size_t buckets);

  std::vector<std::int32_t> buckets_;     // heads into entries_, or -1
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> key_words_;  // flat arena of stored keys
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace hmm
