#include "run/point.hpp"

#include <algorithm>

#include "alg/convolution.hpp"
#include "alg/matmul.hpp"
#include "alg/prefix_sums.hpp"
#include "alg/sort.hpp"
#include "alg/string_match.hpp"
#include "alg/sum.hpp"
#include "core/error.hpp"
#include "machine/machine.hpp"

namespace hmm::run {

namespace {

MachineOverlay overlay_of(const Point& o) {
  if (o.model != "hmm") {
    if (o.machine != nullptr && !o.machine->is_trivial()) {
      throw PreconditionError(
          "--machine topologies with per-DMM overrides or links require the "
          "hmm model");
    }
    return {};
  }
  if (o.machine != nullptr) return o.machine->overlay();
  if (o.d < 1 || o.p % o.d != 0 || o.p / o.d < 1) {
    throw PreconditionError("--p must be a positive multiple of --d");
  }
  return {std::vector<DmmShape>(static_cast<std::size_t>(o.d),
                                DmmShape{o.p / o.d, MemorySpec{0, 1}, {}})};
}

}  // namespace

HmmShape::HmmShape(const Point& o)
    : overlay_(overlay_of(o)),
      scope_(overlay_.dmms.empty() ? nullptr : &overlay_) {
  for (const DmmShape& s : overlay_.dmms) {
    threads_per_dmm_ = std::max(threads_per_dmm_, s.threads);
  }
}

PointOutcome run_point(const Point& o, alg::WorkloadCache& workloads,
                       EngineObserver* observer) {
  const bool hmm_model = o.model == "hmm";
  const HmmShape shape(o);
  const std::int64_t pd = shape.threads_per_dmm();

  PointOutcome out;
  auto finish = [&](const RunReport& r, std::string summary) {
    out.time = r.makespan;
    out.global_stages = r.global_pipeline.stages;
    out.ff_rounds = r.fast_forward.replayed_rounds;
    out.summary = std::move(summary);
  };

  if (o.algorithm == "sum") {
    const auto xs = workloads.random_words(o.n, o.seed);
    if (hmm_model) {
      const auto r =
          alg::sum_hmm(*xs, o.d, pd, o.w, o.l, observer, o.fast_forward);
      finish(r.report, "sum = " + std::to_string(r.sum));
    } else {
      const auto r = alg::sum_umm(*xs, o.p, o.w, o.l, observer, o.fast_forward);
      finish(r.report, "sum = " + std::to_string(r.sum));
    }
  } else if (o.algorithm == "scan") {
    const auto xs = workloads.random_words(o.n, o.seed);
    if (hmm_model) {
      const auto r = alg::prefix_sums_hmm(*xs, o.d, pd, o.w, o.l, observer,
                                          o.fast_forward);
      finish(r.report, "last prefix = " + std::to_string(r.prefix.back()));
    } else {
      const auto r = alg::prefix_sums_umm(*xs, o.p, o.w, o.l, observer,
                                          o.fast_forward);
      finish(r.report, "last prefix = " + std::to_string(r.prefix.back()));
    }
  } else if (o.algorithm == "conv") {
    const auto a = workloads.random_words(o.m, o.seed);
    const auto x =
        workloads.random_words(alg::conv_signal_length(o.m, o.n), o.seed + 1);
    if (hmm_model) {
      const auto r = alg::convolution_hmm(*a, *x, o.d, pd, o.w, o.l, observer,
                                          o.fast_forward);
      finish(r.report, "z[0] = " + std::to_string(r.z.front()));
    } else {
      const auto r = alg::convolution_umm(*a, *x, o.p, o.w, o.l, observer,
                                          o.fast_forward);
      finish(r.report, "z[0] = " + std::to_string(r.z.front()));
    }
  } else if (o.algorithm == "sort") {
    const auto xs = workloads.random_words(o.n, o.seed);
    if (hmm_model) {
      const auto r =
          alg::sort_hmm(*xs, o.d, pd, o.w, o.l, observer, o.fast_forward);
      finish(r.report, "min = " + std::to_string(r.sorted.front()) +
                           ", max = " + std::to_string(r.sorted.back()));
    } else {
      const auto r =
          alg::sort_umm(*xs, o.p, o.w, o.l, observer, o.fast_forward);
      finish(r.report, "min = " + std::to_string(r.sorted.front()) +
                           ", max = " + std::to_string(r.sorted.back()));
    }
  } else if (o.algorithm == "matmul") {
    const auto a = workloads.random_words(o.n * o.n, o.seed);
    const auto b = workloads.random_words(o.n * o.n, o.seed + 1);
    if (hmm_model) {
      const std::int64_t tile = std::min<std::int64_t>(o.n, o.w);
      const auto r = alg::matmul_hmm_tiled(*a, *b, o.n, o.d, pd, o.w, o.l,
                                           tile, observer, o.fast_forward);
      finish(r.report, "C[0][0] = " + std::to_string(r.c.front()));
    } else {
      const auto r = alg::matmul_umm(*a, *b, o.n, o.p, o.w, o.l, observer,
                                     o.fast_forward);
      finish(r.report, "C[0][0] = " + std::to_string(r.c.front()));
    }
  } else if (o.algorithm == "match") {
    const auto pat = workloads.random_words(o.m, o.seed, 0, 3);
    const auto txt = workloads.random_words(o.n, o.seed + 1, 0, 3);
    if (hmm_model) {
      const auto r = alg::string_match_hmm(*pat, *txt, o.d, pd, o.w, o.l,
                                           observer, o.fast_forward);
      finish(r.report,
             "min distance = " +
                 std::to_string(*std::min_element(r.distance.begin(),
                                                  r.distance.end())));
    } else {
      const auto r = alg::string_match_umm(*pat, *txt, o.p, o.w, o.l, observer,
                                           o.fast_forward);
      finish(r.report,
             "min distance = " +
                 std::to_string(*std::min_element(r.distance.begin(),
                                                  r.distance.end())));
    }
  } else {
    throw PreconditionError("unknown algorithm: " + o.algorithm);
  }
  return out;
}

}  // namespace hmm::run
