#include "mm/bank_memory.hpp"

#include <algorithm>

#include "core/mathutil.hpp"

namespace hmm {

BankMemory::BankMemory(MemoryGeometry geometry, std::int64_t size)
    : geometry_(geometry),
      cells_(checked_size(size, "bank memory"), Word{0}) {}

Word BankMemory::peek(Address a) const {
  HMM_REQUIRE(a >= 0 && a < size(), "peek: address out of range");
  return cells_[static_cast<std::size_t>(a)];
}

void BankMemory::poke(Address a, Word v) {
  HMM_REQUIRE(a >= 0 && a < size(), "poke: address out of range");
  cells_[static_cast<std::size_t>(a)] = v;
}

void BankMemory::load(Address base, std::span<const Word> words) {
  HMM_REQUIRE(base >= 0 &&
                  base + static_cast<std::int64_t>(words.size()) <= size(),
              "load: range out of bounds");
  std::copy(words.begin(), words.end(),
            cells_.begin() + static_cast<std::ptrdiff_t>(base));
}

std::vector<Word> BankMemory::dump(Address base, std::int64_t count) const {
  HMM_REQUIRE(base >= 0 && count >= 0 && base + count <= size(),
              "dump: range out of bounds");
  return {cells_.begin() + static_cast<std::ptrdiff_t>(base),
          cells_.begin() + static_cast<std::ptrdiff_t>(base + count)};
}

void BankMemory::service(std::span<const Request> batch,
                         std::int64_t distinct_addresses,
                         std::span<Word> values) {
  const auto n = static_cast<std::int64_t>(batch.size());
  HMM_REQUIRE(values.size() == batch.size(),
              "service: one value slot per request");
  HMM_REQUIRE(n == 0 ? distinct_addresses == 0
                     : distinct_addresses >= 1 && distinct_addresses <= n,
              "service: distinct-address count out of range");
  for (const Request& r : batch) {
    HMM_REQUIRE(r.address >= 0 && r.address < size(),
                "service: address out of range");
  }

  if (distinct_addresses == n) {
    // Duplicate-free: no two requests touch one cell, so serving them one
    // by one is the parallel step.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Request& r = batch[i];
      Word& cell = cells_[static_cast<std::size_t>(r.address)];
      if (r.kind == AccessKind::kWrite) cell = r.value;
      values[i] = cell;
    }
    return;
  }
  service_arbitrated(batch, values);
}

void BankMemory::service_arbitrated(std::span<const Request> batch,
                                    std::span<Word> values) {
  // All reads observe pre-batch memory (a warp access is one parallel
  // step); resolve them first.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& r = batch[i];
    if (r.kind == AccessKind::kRead) {
      values[i] = cells_[static_cast<std::size_t>(r.address)];
    }
  }

  // Writes: highest lane wins per address (deterministic stand-in for the
  // paper's "one of them is arbitrarily selected").  Pairwise scans over
  // at most w requests need no buffer.
  for (const Request& r : batch) {
    if (r.kind != AccessKind::kWrite) continue;
    bool superseded = false;
    for (const Request& other : batch) {
      if (other.kind == AccessKind::kWrite && other.address == r.address &&
          other.lane > r.lane) {
        superseded = true;
        break;
      }
    }
    if (!superseded) cells_[static_cast<std::size_t>(r.address)] = r.value;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& r = batch[i];
    if (r.kind == AccessKind::kWrite) {
      values[i] = cells_[static_cast<std::size_t>(r.address)];
    }
  }
}

}  // namespace hmm
