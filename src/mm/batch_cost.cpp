#include "mm/batch_cost.hpp"

#include <algorithm>
#include <vector>

#include "core/error.hpp"

namespace hmm {

namespace {

/// Distinct addresses of a batch, sorted.  Warp batches are tiny (<= w
/// requests), so sort+unique on a stack-friendly vector beats hashing.
std::vector<Address> distinct_addresses(std::span<const Request> batch) {
  std::vector<Address> addrs;
  addrs.reserve(batch.size());
  for (const Request& r : batch) addrs.push_back(r.address);
  std::sort(addrs.begin(), addrs.end());
  addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
  return addrs;
}

/// Grow an epoch table to cover index `i`.  Doubling keeps the growth
/// amortised O(1) per element; new slots are epoch 0, i.e. "never seen"
/// (the live epoch starts at 1).
template <typename T>
inline T* table_for(std::vector<T>& table, std::size_t i) {
  if (i >= table.size()) {
    table.resize(std::max(i + 1, table.size() * 2));
  }
  return table.data();
}

}  // namespace

// footprint_bytes() enumerates exactly four tables plus the epoch
// counter.  If this assert fires you added a scratch member: extend the
// sum in batch_cost.hpp (and the footprint regression test), then update
// the expected layout here.
static_assert(sizeof(BatchCostScratch) ==
                  sizeof(std::uint64_t) + 4 * sizeof(std::vector<std::uint64_t>),
              "BatchCostScratch gained a member footprint_bytes() does not "
              "cover — audit mm/batch_cost.hpp");

std::int64_t dmm_batch_stages(const MemoryGeometry& geom,
                              std::span<const Request> batch) {
  return profile_batch(geom, batch).dmm_stages;
}

std::int64_t umm_batch_stages(const MemoryGeometry& geom,
                              std::span<const Request> batch) {
  return profile_batch(geom, batch).umm_stages;
}

BatchProfile profile_batch(const MemoryGeometry& geom,
                           std::span<const Request> batch) {
  return profile_batch_reference(geom, batch);
}

BatchProfile profile_batch(const MemoryGeometry& geom,
                           std::span<const Request> batch,
                           BatchCostScratch& scratch) {
  BatchProfile p;
  if (batch.empty()) return p;

  const std::uint64_t epoch = ++scratch.epoch_;
  std::uint64_t* bank_epoch = table_for(
      scratch.bank_epoch_, static_cast<std::size_t>(geom.width() - 1));
  std::int64_t* bank_count = table_for(
      scratch.bank_count_, static_cast<std::size_t>(geom.width() - 1));

  for (const Request& r : batch) {
    const Address a = r.address;
    // The tables are indexed (and grown) by the raw address.
    HMM_REQUIRE(a >= 0, "addresses are non-negative");
    std::uint64_t* addr_epoch =
        table_for(scratch.addr_epoch_, static_cast<std::size_t>(a));
    if (addr_epoch[a] == epoch) continue;  // duplicate: merges for free
    addr_epoch[a] = epoch;
    ++p.distinct_addresses;

    const BankId b = geom.bank_of(a);
    if (bank_epoch[b] != epoch) {
      bank_epoch[b] = epoch;
      bank_count[b] = 0;
      ++p.touched_banks;
    }
    const std::int64_t c = ++bank_count[b];
    // Tie-break like the reference: the SMALLEST bank achieving the max.
    if (c > p.dmm_stages || (c == p.dmm_stages && b < p.hottest_bank)) {
      p.dmm_stages = c;
      p.hottest_bank = b;
    }

    const GroupId g = geom.group_of(a);
    std::uint64_t* group_epoch =
        table_for(scratch.group_epoch_, static_cast<std::size_t>(g));
    if (group_epoch[g] != epoch) {
      group_epoch[g] = epoch;
      ++p.umm_stages;
    }
  }

  HMM_ASSERT(p.dmm_stages <= p.umm_stages,
             "a batch can never conflict worse on the DMM than it "
             "de-coalesces on the UMM (each group holds <=1 address per "
             "bank)");
  return p;
}

BatchProfile profile_batch_reference(const MemoryGeometry& geom,
                                     std::span<const Request> batch) {
  BatchProfile p;
  if (batch.empty()) return p;

  const std::vector<Address> addrs = distinct_addresses(batch);
  p.distinct_addresses = static_cast<std::int64_t>(addrs.size());

  // Per-bank distinct-address counts.  width can be large relative to the
  // batch, so count only touched banks via a sorted key pass.
  std::vector<BankId> banks;
  std::vector<GroupId> groups;
  banks.reserve(addrs.size());
  groups.reserve(addrs.size());
  for (Address a : addrs) {
    banks.push_back(geom.bank_of(a));
    groups.push_back(geom.group_of(a));
  }
  std::sort(banks.begin(), banks.end());
  std::sort(groups.begin(), groups.end());

  std::int64_t best_run = 0;
  BankId best_bank = -1;
  for (std::size_t i = 0; i < banks.size();) {
    std::size_t j = i;
    while (j < banks.size() && banks[j] == banks[i]) ++j;
    const auto run = static_cast<std::int64_t>(j - i);
    if (run > best_run) {
      best_run = run;
      best_bank = banks[i];
    }
    ++p.touched_banks;
    i = j;
  }
  p.dmm_stages = best_run;
  p.hottest_bank = best_bank;

  groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
  p.umm_stages = static_cast<std::int64_t>(groups.size());

  HMM_ASSERT(p.dmm_stages <= p.umm_stages,
             "a batch can never conflict worse on the DMM than it "
             "de-coalesces on the UMM (each group holds <=1 address per "
             "bank)");
  return p;
}

}  // namespace hmm
