// TopologySpec — declarative machine descriptions (`--machine=FILE`).
//
// The paper fixes one machine shape: d identical DMMs of width w under a
// single UMM with latency l.  A TopologySpec generalises that flat
// (d, p, w, l) tuple to a JSON document describing one or more HMMs —
// per-DMM thread counts, shared-memory latencies and size floors — joined
// by named interconnect links with latency and bandwidth.  Cross-HMM
// global traffic is priced as extra pipeline stages (see DmmLink in
// machine/machine.hpp).
//
// The schema is documented field-by-field in docs/TOPOLOGY.md, which is
// executable (doccheck) and therefore normative alongside this header.
// Shape of a document:
//
//   {
//     "name": "nvlink-2gpu",
//     "width": 32,
//     "global_latency": 400,
//     "hmms": [
//       {"name": "gpu0", "dmms": 16, "threads_per_dmm": 512},
//       {"name": "gpu1", "dmms": 16, "threads_per_dmm": 512,
//        "dmm_overrides": [{"dmm": 0, "threads": 256}]}
//     ],
//     "links": [{"name": "nvlink", "from": "gpu1", "to": "gpu0",
//                "latency": 200, "words_per_stage": 8}],
//     "home": "gpu0"
//   }
//
// Parsing is STRICT: unknown keys, wrong types, out-of-range values,
// duplicate names, unreachable HMMs all throw TopologySpecError with a
// message naming the offending key (hmmsim maps this to its own exit
// code, distinct from generic usage errors).
//
// On the hmm model every spec travels to the span drivers as a
// MachineOverlay of its resolved DMM shapes, and flag points travel as
// the overlay of their uniform machine, so a flag run and its equivalent
// JSON take one path (run::HmmShape).
// A spec expressible as plain flags — one HMM, uniform thread counts,
// shared latency 1, no size floors, no links — is TRIVIAL: it
// fingerprints as its flags and may run on the umm model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "core/types.hpp"
#include "machine/machine.hpp"

namespace hmm::topo {

/// A machine description that fails validation.  Subclasses
/// PreconditionError so callers that don't care still get the standard
/// failure path, while hmmsim catches it first for the dedicated
/// bad-machine-file exit code.
class TopologySpecError : public PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

/// One entry of an HMM's "dmm_overrides" array: per-DMM deviations from
/// the HMM's base values.  Absent fields inherit the base.
struct DmmOverride {
  std::int64_t dmm = 0;  ///< DMM index within the owning HMM
  std::optional<std::int64_t> threads;
  std::optional<Cycle> shared_latency;
  std::optional<std::int64_t> shared_size;
};

/// One HMM (one "GPU"): a group of DMMs sharing the machine's global
/// memory, possibly through an interconnect link.
struct HmmSpec {
  std::string name;
  std::int64_t dmms = 1;
  std::int64_t threads_per_dmm = 0;  ///< resolved; warps are normalized here
  Cycle shared_latency = 1;
  std::int64_t shared_size = 0;  ///< minimum words; 0 = driver-sized
  std::vector<DmmOverride> overrides;
};

/// One interconnect link joining two HMMs (bidirectional).
struct LinkSpec {
  std::string name;
  std::string from;
  std::string to;
  Cycle latency = 0;
  std::int64_t words_per_stage = 1;
};

class TopologySpec {
 public:
  std::string name = "machine";
  std::int64_t width = 32;
  Cycle global_latency = 400;
  std::vector<HmmSpec> hmms;
  std::vector<LinkSpec> links;
  std::string home;  ///< name of the HMM owning the global memory

  /// Per-DMM resolved shapes, in HMM declaration order: hmms[0].dmms
  /// shapes, then hmms[1].dmms, ...  Each `shared` is set, its size a
  /// MINIMUM (0 = driver-sized); each link is the DMM's route to the home
  /// HMM, inactive when local.  Filled by finalize(); parse/synthesize
  /// always return finalized specs.
  std::vector<DmmShape> shapes;

  // ---- derived flat axes ----------------------------------------------
  std::int64_t total_dmms() const {
    return static_cast<std::int64_t>(shapes.size());
  }
  std::int64_t total_threads() const;
  std::int64_t max_threads_per_dmm() const;

  /// True when the resolved machine is expressible as plain
  /// (d, p, w, l) flags: one HMM, uniform thread counts, shared
  /// latency 1, no shared-size floors, no links.  It decides only two
  /// things: a trivial spec leaves the grid fingerprint as its flags
  /// (run::GridSpec::adopt), and only a trivial spec may run on umm.
  bool is_trivial() const;

  /// The overlay every hmm dispatch installs (run::HmmShape): `shapes`.
  MachineOverlay overlay() const;

  /// Canonical fingerprint text of the MACHINE the spec resolves to —
  /// resolved per-DMM shapes and routes, not the document's spelling —
  /// so renaming a link or folding an override into the base never
  /// changes a grid fingerprint, while any change the engine can observe
  /// does.  Stable compact JSON (sorted keys).
  std::string canonical() const;

  /// The normalized DOCUMENT form: a valid machine description that
  /// re-parses to this spec (warps normalized to threads, defaults made
  /// explicit).  `hmmsim --dry-run` prints this.
  std::string document() const;

  /// Validate cross-field invariants and resolve `shapes` (including
  /// link routes).  parse_* and synthesize_* call this; call it again
  /// after mutating the public fields by hand (tests).
  void finalize();
};

/// Parse and validate a machine description.  `source` names the input
/// in error messages (a file path, or "<inline>" for service requests).
TopologySpec parse_topology_text(std::string_view text,
                                 const std::string& source);

/// Read `path` and parse it; a missing/unreadable file is a
/// TopologySpecError too (same exit-code class as a malformed one).
TopologySpec parse_topology_file(const std::string& path);

/// The single-HMM topology equivalent to the flat flag tuple: d DMMs of
/// p/d threads, width w, global latency l (p must be a positive multiple
/// of d).  Always trivial.
TopologySpec synthesize_topology(const std::string& name, std::int64_t p,
                                 std::int64_t w, Cycle l, std::int64_t d);

}  // namespace hmm::topo
