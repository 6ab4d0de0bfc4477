#include "analysis/checker.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"

namespace hmm::analysis {

namespace {

const char* access_name(AccessKind k) {
  return k == AccessKind::kRead ? "read" : "write";
}

std::size_t kind_index(FindingKind kind) {
  return static_cast<std::size_t>(kind);
}

}  // namespace

const char* to_string(FindingKind kind) {
  switch (kind) {
    case FindingKind::kRace:
      return "race";
    case FindingKind::kOutOfBounds:
      return "out-of-bounds";
    case FindingKind::kUninitializedRead:
      return "uninitialized-read";
    case FindingKind::kWarpWriteWrite:
      return "warp-write-write";
  }
  return "unknown";
}

std::string to_string(const Finding& f) {
  std::string s = to_string(f.kind);
  s += ": ";
  if (f.space == MemorySpace::kShared) {
    s += "shared[dmm " + std::to_string(f.dmm) + "]";
  } else {
    s += "global";
  }
  s += " addr " + std::to_string(f.address);
  s += " @" + std::to_string(f.when);
  s += ": warp " + std::to_string(f.warp) + " (thread " +
       std::to_string(f.thread) + ") " + access_name(f.access);
  if (f.other_thread >= 0) {
    s += " vs warp " + std::to_string(f.other_warp) + " (thread " +
         std::to_string(f.other_thread) + ") " + access_name(f.other_access);
  }
  return s;
}

bool ConflictHistogram::all_within(std::int64_t max_allowed) const {
  return max_degree <= max_allowed;
}

namespace {

void tally(ConflictHistogram& hist, std::int64_t degree) {
  if (static_cast<std::size_t>(degree) >= hist.batches_by_degree.size()) {
    hist.batches_by_degree.resize(static_cast<std::size_t>(degree) + 1, 0);
  }
  ++hist.batches_by_degree[static_cast<std::size_t>(degree)];
  ++hist.batches;
  hist.max_degree = std::max(hist.max_degree, degree);
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction and declarations
// ---------------------------------------------------------------------------

AccessChecker::AccessChecker(const Machine& machine, CheckerConfig config)
    : config_(config),
      width_(machine.width()),
      num_dmms_(machine.num_dmms()),
      machine_(&machine) {
  HMM_REQUIRE(config_.max_findings >= 0,
              "checker: max_findings must be >= 0");
  if (machine.has_shared()) {
    shared_size_ = machine.shared_memory(0).size();
    shared_cells_.resize(static_cast<std::size_t>(num_dmms_));
    for (auto& table : shared_cells_) {
      table.resize(static_cast<std::size_t>(shared_size_));
    }
  }
  if (machine.has_global()) {
    global_size_ = machine.global_memory().size();
    global_cells_.resize(static_cast<std::size_t>(global_size_));
  }
  dmm_epoch_.assign(static_cast<std::size_t>(num_dmms_), 1);
}

AccessChecker::AccessChecker(CheckerConfig config) : config_(config) {
  HMM_REQUIRE(config_.max_findings >= 0,
              "checker: max_findings must be >= 0");
}

void AccessChecker::declare_region(MemorySpace space, Address base,
                                   std::int64_t size) {
  const std::int64_t mem =
      space == MemorySpace::kShared ? shared_size_ : global_size_;
  HMM_REQUIRE(mem > 0, "checker: machine has no memory of this space");
  HMM_REQUIRE(base >= 0 && size >= 1 && base + size <= mem,
              "checker: declared region outside the physical memory");
  auto& regions =
      space == MemorySpace::kShared ? shared_regions_ : global_regions_;
  regions.push_back(Region{base, size});
}

void AccessChecker::declare_initialized(MemorySpace space, Address base,
                                        std::int64_t size, DmmId dmm) {
  const std::int64_t mem =
      space == MemorySpace::kShared ? shared_size_ : global_size_;
  HMM_REQUIRE(mem > 0, "checker: machine has no memory of this space");
  HMM_REQUIRE(base >= 0 && size >= 0 && base + size <= mem,
              "checker: initialized range outside the physical memory");
  auto mark = [&](std::vector<CellState>& table) {
    for (Address a = base; a < base + size; ++a) {
      table[static_cast<std::size_t>(a)].initialized = true;
    }
  };
  if (space == MemorySpace::kGlobal) {
    mark(global_cells_);
    return;
  }
  HMM_REQUIRE(dmm >= -1 && dmm < num_dmms_, "checker: DMM id out of range");
  if (dmm >= 0) {
    mark(shared_cells_[static_cast<std::size_t>(dmm)]);
  } else {
    for (auto& table : shared_cells_) mark(table);
  }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

std::int64_t AccessChecker::count(FindingKind kind) const {
  return counts_[kind_index(kind)];
}

std::int64_t AccessChecker::total_count() const {
  std::int64_t total = 0;
  for (std::int64_t c : counts_) total += c;
  return total;
}

bool AccessChecker::certify_conflict_free(std::int64_t max_degree) const {
  return shared_hist_.all_within(max_degree);
}

bool AccessChecker::certify_coalesced(std::int64_t max_groups) const {
  return global_hist_.all_within(max_groups);
}

void AccessChecker::reset_findings() {
  findings_.clear();
  std::fill(std::begin(counts_), std::end(counts_), 0);
  shared_hist_ = ConflictHistogram{};
  global_hist_ = ConflictHistogram{};
}

void AccessChecker::record(const Finding& f) {
  ++counts_[kind_index(f.kind)];
  if (static_cast<std::int64_t>(findings_.size()) < config_.max_findings) {
    findings_.push_back(f);
  }
}

// ---------------------------------------------------------------------------
// Happens-before machinery
// ---------------------------------------------------------------------------

std::vector<AccessChecker::CellState>& AccessChecker::cells_for(
    MemorySpace space, DmmId dmm) {
  if (space == MemorySpace::kGlobal) return global_cells_;
  return shared_cells_[static_cast<std::size_t>(dmm)];
}

bool AccessChecker::in_declared_region(MemorySpace space, Address a) const {
  const auto& regions =
      space == MemorySpace::kShared ? shared_regions_ : global_regions_;
  if (regions.empty()) {
    const std::int64_t mem =
        space == MemorySpace::kShared ? shared_size_ : global_size_;
    return a >= 0 && a < mem;
  }
  return std::any_of(regions.begin(), regions.end(), [a](const Region& r) {
    return a >= r.base && a < r.base + r.size;
  });
}

/// Is `prior` ordered before the current access of a thread on
/// `accessor_dmm`?  Same-DMM pairs are ordered by that DMM's barrier
/// epoch (a kMachine release bumps those too); cross-DMM pairs — only
/// possible through the global memory — need a machine-scope release.
bool AccessChecker::ordered_after(const AccessRecord& prior,
                                  DmmId accessor_dmm) const {
  if (prior.dmm == accessor_dmm) {
    return dmm_epoch_[static_cast<std::size_t>(prior.dmm)] > prior.dmm_epoch;
  }
  return machine_epoch_ > prior.machine_epoch;
}

void AccessChecker::bump_dmm_epochs() {
  for (std::uint64_t& e : dmm_epoch_) ++e;
}

// ---------------------------------------------------------------------------
// EngineObserver
// ---------------------------------------------------------------------------

void AccessChecker::on_run_begin(const Machine& machine) {
  if (machine_ == nullptr) {
    // Deferred-binding form: adopt this machine's shape now.
    machine_ = &machine;
    width_ = machine.width();
    num_dmms_ = machine.num_dmms();
    if (machine.has_shared()) {
      shared_size_ = machine.shared_memory(0).size();
      shared_cells_.resize(static_cast<std::size_t>(num_dmms_));
      for (auto& table : shared_cells_) {
        table.resize(static_cast<std::size_t>(shared_size_));
      }
    }
    if (machine.has_global()) {
      global_size_ = machine.global_memory().size();
      global_cells_.resize(static_cast<std::size_t>(global_size_));
    }
    dmm_epoch_.assign(static_cast<std::size_t>(num_dmms_), 1);
  }
  HMM_REQUIRE(&machine == machine_,
              "checker: attached to a machine it was not built for");
  // A run boundary is a machine-wide synchronisation point.
  ++machine_epoch_;
  bump_dmm_epochs();
}

void AccessChecker::on_barrier_release(const BarrierReleaseEvent& event) {
  if (event.scope == BarrierScope::kMachine) {
    ++machine_epoch_;
    bump_dmm_epochs();
  } else {
    ++dmm_epoch_[static_cast<std::size_t>(event.dmm)];
  }
}

void AccessChecker::check_request(const MemoryBatchEvent& event,
                                  const Request& r) {
  const std::int64_t mem =
      event.space == MemorySpace::kShared ? shared_size_ : global_size_;
  if (config_.bounds && !in_declared_region(event.space, r.address)) {
    record(Finding{.kind = FindingKind::kOutOfBounds,
                   .space = event.space,
                   .dmm = event.space == MemorySpace::kShared ? event.dmm : -1,
                   .address = r.address,
                   .when = event.issue,
                   .thread = r.thread,
                   .warp = event.warp,
                   .access = r.kind});
  }
  if (r.address < 0 || r.address >= mem) return;  // untrackable: no cell

  CellState& cell = cells_for(event.space, event.dmm)
      [static_cast<std::size_t>(r.address)];
  if (config_.bounds && r.kind == AccessKind::kRead && !cell.initialized &&
      !cell.uninit_reported) {
    cell.uninit_reported = true;
    record(Finding{.kind = FindingKind::kUninitializedRead,
                   .space = event.space,
                   .dmm = event.space == MemorySpace::kShared ? event.dmm : -1,
                   .address = r.address,
                   .when = event.issue,
                   .thread = r.thread,
                   .warp = event.warp,
                   .access = r.kind});
  }

  if (!config_.race) return;
  // One race finding per (cell, dispatch): a broadcast read of a racy
  // cell is one defect, not width-many.
  if (std::find(race_flagged_.begin(), race_flagged_.end(), r.address) !=
      race_flagged_.end()) {
    return;
  }
  auto flag_race = [&](const AccessRecord& prior, AccessKind prior_kind) {
    if (!prior.valid() || prior.warp == event.warp) return false;
    if (ordered_after(prior, event.dmm)) return false;
    record(Finding{.kind = FindingKind::kRace,
                   .space = event.space,
                   .dmm = event.space == MemorySpace::kShared ? event.dmm : -1,
                   .address = r.address,
                   .when = event.issue,
                   .thread = r.thread,
                   .warp = event.warp,
                   .access = r.kind,
                   .other_thread = prior.thread,
                   .other_warp = prior.warp,
                   .other_access = prior_kind});
    race_flagged_.push_back(r.address);
    return true;
  };
  // Reads race with an unordered prior write; writes race with an
  // unordered prior write or read.  The first unordered conflict found
  // for the cell wins.
  if (flag_race(cell.write, AccessKind::kWrite)) return;
  if (r.kind == AccessKind::kWrite) {
    if (flag_race(cell.read0, AccessKind::kRead)) return;
    flag_race(cell.read1, AccessKind::kRead);
  }
}

void AccessChecker::commit_request(const MemoryBatchEvent& event,
                                   const Request& r) {
  const std::int64_t mem =
      event.space == MemorySpace::kShared ? shared_size_ : global_size_;
  if (r.address < 0 || r.address >= mem) return;
  CellState& cell = cells_for(event.space, event.dmm)
      [static_cast<std::size_t>(r.address)];
  if (r.kind == AccessKind::kWrite) {
    cell.initialized = true;
    if (!config_.race) return;
    cell.write = AccessRecord{
        .thread = r.thread,
        .warp = event.warp,
        .dmm = event.dmm,
        .dmm_epoch = dmm_epoch_[static_cast<std::size_t>(event.dmm)],
        .machine_epoch = machine_epoch_,
    };
    return;
  }
  if (!config_.race) return;
  const AccessRecord rec{
      .thread = r.thread,
      .warp = event.warp,
      .dmm = event.dmm,
      .dmm_epoch = dmm_epoch_[static_cast<std::size_t>(event.dmm)],
      .machine_epoch = machine_epoch_,
  };
  if (cell.read0.valid() && cell.read0.warp != event.warp) {
    cell.read1 = cell.read0;  // keep the most recent other-warp read
  }
  cell.read0 = rec;
}

void AccessChecker::on_memory_batch(const MemoryBatchEvent& event) {
  if (config_.conflict) {
    // Certify against the MODEL price (bank conflict degree / address
    // groups), not the pipeline slot: event.stages also carries any
    // interconnect surcharge of a --machine topology, which says nothing
    // about how well the access coalesces.
    const std::int64_t degree =
        event.profile != nullptr
            ? (event.dmm_pricing ? event.profile->dmm_stages
                                 : event.profile->umm_stages)
            : event.stages;
    tally(event.dmm_pricing ? shared_hist_ : global_hist_, degree);

    // (c) Two lanes of one dispatch writing the same address.  Flag the
    // first colliding pair per address (the earliest write "owns" it).
    // A batch whose addresses are all distinct cannot collide.
    const bool may_collide =
        event.profile == nullptr ||
        event.profile->distinct_addresses !=
            static_cast<std::int64_t>(event.batch.size());
    for (std::size_t i = 0; may_collide && i < event.batch.size(); ++i) {
      const Request& a = event.batch[i];
      if (a.kind != AccessKind::kWrite) continue;
      bool first_writer = true;
      for (std::size_t j = 0; j < i; ++j) {
        if (event.batch[j].kind == AccessKind::kWrite &&
            event.batch[j].address == a.address) {
          first_writer = false;
          break;
        }
      }
      if (!first_writer) continue;
      for (std::size_t j = i + 1; j < event.batch.size(); ++j) {
        const Request& b = event.batch[j];
        if (b.kind != AccessKind::kWrite || b.address != a.address) continue;
        record(Finding{
            .kind = FindingKind::kWarpWriteWrite,
            .space = event.space,
            .dmm = event.space == MemorySpace::kShared ? event.dmm : -1,
            .address = a.address,
            .when = event.issue,
            .thread = b.thread,
            .warp = event.warp,
            .access = AccessKind::kWrite,
            .other_thread = a.thread,
            .other_warp = event.warp,
            .other_access = AccessKind::kWrite,
        });
        break;
      }
    }
  }

  if (!config_.race && !config_.bounds) return;
  // All requests of a dispatch are concurrent but mutually ordered within
  // the warp: check every request against pre-dispatch records first,
  // then commit the whole dispatch.
  race_flagged_.clear();
  for (const Request& r : event.batch) check_request(event, r);
  for (const Request& r : event.batch) commit_request(event, r);
}

}  // namespace hmm::analysis
