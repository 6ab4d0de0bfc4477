// Tests for the approximate string matching extension ([18]).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "alg/device.hpp"
#include "alg/string_match.hpp"
#include "alg/workload.hpp"
#include "core/rng.hpp"
#include "telemetry/fanout.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"

namespace hmm {
namespace {

std::vector<Word> to_words(std::string_view s) {
  return {s.begin(), s.end()};
}

/// Reference semi-global DP, independently coded.
std::vector<Word> oracle(const std::vector<Word>& p,
                         const std::vector<Word>& t) {
  const auto m = static_cast<std::int64_t>(p.size());
  const auto n = static_cast<std::int64_t>(t.size());
  std::vector<std::vector<Word>> D(static_cast<std::size_t>(m) + 1,
                                   std::vector<Word>(static_cast<std::size_t>(n) + 1, 0));
  for (std::int64_t i = 1; i <= m; ++i) D[static_cast<std::size_t>(i)][0] = i;
  for (std::int64_t i = 1; i <= m; ++i) {
    for (std::int64_t j = 1; j <= n; ++j) {
      const Word sub =
          D[static_cast<std::size_t>(i - 1)][static_cast<std::size_t>(j - 1)] +
          (p[static_cast<std::size_t>(i - 1)] != t[static_cast<std::size_t>(j - 1)]
               ? 1
               : 0);
      D[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = std::min(
          {sub,
           D[static_cast<std::size_t>(i - 1)][static_cast<std::size_t>(j)] + 1,
           D[static_cast<std::size_t>(i)][static_cast<std::size_t>(j - 1)] + 1});
    }
  }
  return {D[static_cast<std::size_t>(m)].begin() + 1,
          D[static_cast<std::size_t>(m)].end()};
}

TEST(StringMatchSequential, FindsExactAndFuzzyOccurrences) {
  const auto p = to_words("needle");
  const auto t = to_words("haystack-needle-haystack-neXdle-end");
  const auto r = alg::string_match_sequential(p, t);
  EXPECT_EQ(r.distance, oracle(p, t));
  // Exact hit: distance 0 right after "...needle".
  EXPECT_EQ(r.distance[14], 0);
  // One-substitution hit at "neXdle".
  EXPECT_EQ(r.distance[30], 1);
  // Cost is Θ(mn).
  EXPECT_GT(r.time, static_cast<Cycle>(p.size() * t.size()));
}

TEST(StringMatchUmm, MatchesOracleAcrossShapes) {
  Rng rng(3);
  for (const auto& [m, n, p, w, l] :
       std::vector<std::array<std::int64_t, 5>>{{1, 16, 8, 4, 2},
                                                {3, 50, 16, 4, 4},
                                                {8, 64, 32, 8, 8},
                                                {5, 33, 7, 4, 3}}) {
    std::vector<Word> pat, txt;
    for (std::int64_t i = 0; i < m; ++i)
      pat.push_back(static_cast<Word>(rng.next_below(4)));
    for (std::int64_t i = 0; i < n; ++i)
      txt.push_back(static_cast<Word>(rng.next_below(4)));
    const auto r = alg::string_match_umm(pat, txt, p, w, l);
    EXPECT_EQ(r.distance, oracle(pat, txt))
        << "m=" << m << " n=" << n << " p=" << p;
  }
}

TEST(StringMatchHmm, MatchesOracleAcrossShapes) {
  Rng rng(4);
  for (const auto& [m, n, d, pd, w, l] :
       std::vector<std::array<std::int64_t, 6>>{{1, 16, 2, 4, 4, 4},
                                                {4, 64, 4, 8, 4, 16},
                                                {8, 96, 3, 16, 8, 32},
                                                {6, 60, 5, 8, 4, 8},
                                                {8, 64, 1, 16, 8, 8}}) {
    std::vector<Word> pat, txt;
    for (std::int64_t i = 0; i < m; ++i)
      pat.push_back(static_cast<Word>(rng.next_below(3)));
    for (std::int64_t i = 0; i < n; ++i)
      txt.push_back(static_cast<Word>(rng.next_below(3)));
    const auto r = alg::string_match_hmm(pat, txt, d, pd, w, l);
    EXPECT_EQ(r.distance, oracle(pat, txt))
        << "m=" << m << " n=" << n << " d=" << d;
  }
}

TEST(StringMatchHmm, HaloMakesSlicingExactAtSliceBoundaries) {
  // Adversarial: an exact pattern occurrence straddling a slice boundary
  // must still be found (this is what the 2m halo is for).
  const auto pat = to_words("abcdef");
  std::vector<Word> txt(64, 'x');
  // d = 4 => slice boundary at 16; plant the match at positions 13..18.
  for (std::int64_t k = 0; k < 6; ++k) {
    txt[static_cast<std::size_t>(13 + k)] = pat[static_cast<std::size_t>(k)];
  }
  const auto r = alg::string_match_hmm(pat, txt, 4, 8, 4, 8);
  EXPECT_EQ(r.distance, oracle(pat, txt));
  EXPECT_EQ(r.distance[18], 0);  // the straddling exact hit
}

TEST(StringMatch, AllModelsAgree) {
  Rng rng(5);
  std::vector<Word> pat, txt;
  for (int i = 0; i < 8; ++i) pat.push_back(static_cast<Word>(rng.next_below(4)));
  for (int i = 0; i < 128; ++i) txt.push_back(static_cast<Word>(rng.next_below(4)));
  const auto seq = alg::string_match_sequential(pat, txt);
  const auto umm = alg::string_match_umm(pat, txt, 64, 8, 16);
  const auto hmm = alg::string_match_hmm(pat, txt, 4, 16, 8, 16);
  EXPECT_EQ(seq.distance, umm.distance);
  EXPECT_EQ(seq.distance, hmm.distance);
}

TEST(StringMatchHmm, BeatsTheUmmAtGpuLatency) {
  // The point of [18] on the HMM: the (n+m) wavefront steps stop paying
  // the global latency once the band lives in shared memory.
  Rng rng(6);
  std::vector<Word> pat, txt;
  for (int i = 0; i < 16; ++i) pat.push_back(static_cast<Word>(rng.next_below(4)));
  for (int i = 0; i < 2048; ++i) txt.push_back(static_cast<Word>(rng.next_below(4)));
  const std::int64_t w = 32, l = 200, d = 8, pd = 64;
  const auto umm = alg::string_match_umm(pat, txt, d * pd, w, l);
  const auto hmm = alg::string_match_hmm(pat, txt, d, pd, w, l);
  EXPECT_EQ(umm.distance, hmm.distance);
  EXPECT_GT(umm.report.makespan, 4 * hmm.report.makespan);
}

TEST(StringMatch, RejectsBadShapes) {
  const auto p = to_words("long-pattern");
  const auto t = to_words("short");
  EXPECT_THROW(alg::string_match_sequential(p, t), PreconditionError);
  EXPECT_THROW(alg::string_match_sequential({}, t), PreconditionError);
  const auto ok_p = to_words("ab");
  const auto ok_t = to_words("abcabcabc");  // n = 9, not divisible by d = 2
  EXPECT_THROW(alg::string_match_hmm(ok_p, ok_t, 2, 8, 4, 4),
               PreconditionError);
}

// ---- Counted barriers against the per-diagonal wavefront -----------------
//
// device_asm_band waits out the diagonals on which a thread holds no cell
// with counted barriers.  Below is the band as it was written with one
// barrier per diagonal, and two drivers equal to string_match_umm and
// string_match_hmm apart from the band.  Both forms must agree in every
// report field, fast-forward stats included, in the output words, event
// for event in the trace, and in the metrics.

std::int64_t padded_cols(std::int64_t text_len) {
  const std::int64_t cols = text_len + 1;
  return cols % 2 == 0 ? cols + 1 : cols;
}

SubTask per_diagonal_band(ThreadCtx& t, MemorySpace space, Address pat,
                          std::int64_t m, Address txt, std::int64_t text_len,
                          Address table, std::int64_t cols, std::int64_t self,
                          std::int64_t workers, BarrierScope scope) {
  if (self != alg::kNoWorker) {
    for (Address j = self; j <= text_len; j += workers) {
      co_await t.write(space, table + j, 0);
    }
    for (Address i = 1 + self; i <= m; i += workers) {
      co_await t.write(space, table + i * cols, i);
    }
  }
  co_await t.barrier(scope);
  for (std::int64_t diag = 2; diag <= m + text_len; ++diag) {
    const std::int64_t lo = std::max<std::int64_t>(1, diag - text_len);
    const std::int64_t hi = std::min<std::int64_t>(m, diag - 1);
    if (self != alg::kNoWorker) {
      for (std::int64_t i = lo + self; i <= hi; i += workers) {
        const std::int64_t j = diag - i;
        const Word pc = co_await t.read(space, pat + i - 1);
        const Word tc = co_await t.read(space, txt + j - 1);
        const Word up_left =
            co_await t.read(space, table + (i - 1) * cols + j - 1);
        const Word up = co_await t.read(space, table + (i - 1) * cols + j);
        const Word left = co_await t.read(space, table + i * cols + j - 1);
        co_await t.compute();
        const Word best = std::min({up_left + (pc != tc ? 1 : 0), up + 1,
                                    left + 1});
        co_await t.write(space, table + i * cols + j, best);
      }
    }
    co_await t.barrier(scope);
  }
}

alg::MachineMatch per_diagonal_umm(std::span<const Word> pattern,
                                   std::span<const Word> text,
                                   std::int64_t threads, std::int64_t width,
                                   Cycle latency, EngineObserver* observer,
                                   bool fast_forward) {
  const auto m = static_cast<std::int64_t>(pattern.size());
  const auto n = static_cast<std::int64_t>(text.size());
  const std::int64_t cols = padded_cols(n);
  const Address pat = 0, txt = m, table = m + n;
  Machine machine = Machine::umm(width, latency, threads, m + n + (m + 1) * cols);
  machine.set_observer(observer);
  machine.set_fast_forward(fast_forward);
  machine.global_memory().load(pat, pattern);
  machine.global_memory().load(txt, text);
  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    co_await per_diagonal_band(t, MemorySpace::kGlobal, pat, m, txt, n, table,
                               cols, t.thread_id(), t.num_threads(),
                               BarrierScope::kMachine);
  });
  return {machine.global_memory().dump(table + m * cols + 1, n),
          std::move(report)};
}

alg::MachineMatch per_diagonal_hmm(std::span<const Word> pattern,
                                   std::span<const Word> text,
                                   std::int64_t d, std::int64_t threads_per_dmm,
                                   std::int64_t width, Cycle latency,
                                   EngineObserver* observer,
                                   bool fast_forward) {
  const auto m = static_cast<std::int64_t>(pattern.size());
  const auto n = static_cast<std::int64_t>(text.size());
  const std::int64_t c = n / d;
  const std::int64_t max_wl = c + 2 * m;
  const std::int64_t cols = padded_cols(max_wl);
  const Address s_pat = 0, s_txt = m, s_table = m + max_wl;
  const Address g_pat = 0, g_txt = m, g_out = m + n;
  Machine machine = Machine::hmm(width, latency, d, threads_per_dmm,
                                 s_table + (m + 1) * cols, m + n + n);
  machine.set_observer(observer);
  machine.set_fast_forward(fast_forward);
  machine.global_memory().load(g_pat, pattern);
  machine.global_memory().load(g_txt, text);
  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    const std::int64_t self = t.local_thread_id();
    const std::int64_t workers = t.dmm_thread_count();
    const std::int64_t slice0 = t.dmm_id() * c;
    const Address ws = std::max<std::int64_t>(0, slice0 - 2 * m);
    const std::int64_t wl = slice0 + c - ws;
    co_await alg::device_copy(t, MemorySpace::kShared, s_pat,
                              MemorySpace::kGlobal, g_pat, m, self, workers);
    co_await alg::device_copy(t, MemorySpace::kShared, s_txt,
                              MemorySpace::kGlobal, g_txt + ws, wl, self,
                              workers);
    co_await t.barrier(BarrierScope::kDmm);
    co_await per_diagonal_band(t, MemorySpace::kShared, s_pat, m, s_txt, wl,
                               s_table, cols, self, workers,
                               BarrierScope::kDmm);
    const Address row_m = s_table + m * cols;
    for (Address k = self; k < c; k += workers) {
      const Word v =
          co_await t.read(MemorySpace::kShared, row_m + (slice0 + k - ws) + 1);
      co_await t.write(MemorySpace::kGlobal, g_out + slice0 + k, v);
    }
  });
  return {machine.global_memory().dump(g_out, n), std::move(report)};
}

/// Everything a run shows: the unobserved run (replay on when `ff`) and
/// one traced run with a metrics registry beside the trace sink.
struct BandRuns {
  RunReport report;
  std::vector<Word> distance;
  RunReport traced;
  std::vector<TraceEvent> trace;
  MetricsSnapshot metrics;
};

using MatchFn =
    std::function<alg::MachineMatch(EngineObserver* observer, bool ff)>;

BandRuns observe(const MatchFn& run, bool ff) {
  BandRuns out;
  alg::MachineMatch plain = run(nullptr, ff);
  out.report = plain.report;
  out.distance = std::move(plain.distance);
  telemetry::CollectingSink sink;
  telemetry::MetricsRegistry metrics;
  telemetry::ObserverFanout fanout;
  fanout.add(&sink);
  fanout.add(&metrics);
  out.traced = run(&fanout, ff).report;
  out.trace = sink.events();
  out.metrics = metrics.snapshot();
  return out;
}

void expect_same_runs(const MatchFn& counted, const MatchFn& per_diagonal,
                      const std::string& what) {
  for (const bool ff : {true, false}) {
    const BandRuns a = observe(counted, ff);
    const BandRuns b = observe(per_diagonal, ff);
    const std::string where = what + (ff ? " ff=on" : " ff=off");
    EXPECT_EQ(a.report, b.report) << where;
    // RunReport::operator== leaves the fast-forward stats out.
    const FastForwardStats& fa = a.report.fast_forward;
    const FastForwardStats& fb = b.report.fast_forward;
    EXPECT_EQ(fa.cache_hits, fb.cache_hits) << where;
    EXPECT_EQ(fa.cache_misses, fb.cache_misses) << where;
    EXPECT_EQ(fa.replayed_rounds, fb.replayed_rounds) << where;
    EXPECT_EQ(fa.bailouts, fb.bailouts) << where;
    EXPECT_EQ(a.distance, b.distance) << where;
    EXPECT_EQ(a.traced, b.traced) << where;
    ASSERT_EQ(a.trace.size(), b.trace.size()) << where;
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
      ASSERT_EQ(a.trace[i], b.trace[i]) << where << ": trace event " << i;
    }
    EXPECT_EQ(a.metrics, b.metrics) << where;
    EXPECT_GT(a.report.barrier_releases, 0) << where;
  }
}

std::vector<Word> random_symbols(std::int64_t len, Rng& rng) {
  std::vector<Word> s;
  for (std::int64_t i = 0; i < len; ++i) {
    s.push_back(static_cast<Word>(rng.next_below(4)));
  }
  return s;
}

TEST(StringMatchCountedBarriers, UmmMatchesThePerDiagonalWavefront) {
  Rng rng(9);
  // (m, n, p, w, l): m above and below the worker count p, every w, a
  // partial warp, and `hmmsim match --model umm --n 300 --m 40 --p 32
  // --w 8 --l 3`.
  for (const auto& [m, n, p, w, l] :
       std::vector<std::array<std::int64_t, 5>>{{40, 300, 32, 8, 3},
                                                {6, 90, 24, 4, 5},
                                                {20, 70, 12, 4, 9},
                                                {12, 160, 96, 32, 7},
                                                {33, 64, 20, 32, 2}}) {
    const auto pat = random_symbols(m, rng);
    const auto txt = random_symbols(n, rng);
    expect_same_runs(
        [&](EngineObserver* obs, bool ff) {
          return alg::string_match_umm(pat, txt, p, w, l, obs, ff);
        },
        [&](EngineObserver* obs, bool ff) {
          return per_diagonal_umm(pat, txt, p, w, l, obs, ff);
        },
        "umm m=" + std::to_string(m) + " n=" + std::to_string(n) +
            " p=" + std::to_string(p) + " w=" + std::to_string(w));
  }
}

TEST(StringMatchCountedBarriers, HmmMatchesThePerDiagonalWavefront) {
  Rng rng(10);
  // (m, n, d, p/d, w, l): m above and below the worker count p/d, every
  // w, and `hmmsim match --model hmm --n 512 --m 40 --p 256 --d 4 --w 8
  // --l 10`.
  for (const auto& [m, n, d, pd, w, l] :
       std::vector<std::array<std::int64_t, 6>>{{40, 512, 4, 64, 8, 10},
                                                {24, 96, 3, 16, 4, 6},
                                                {10, 120, 2, 40, 4, 3},
                                                {16, 256, 2, 64, 32, 20},
                                                {40, 128, 4, 24, 32, 5}}) {
    const auto pat = random_symbols(m, rng);
    const auto txt = random_symbols(n, rng);
    expect_same_runs(
        [&](EngineObserver* obs, bool ff) {
          return alg::string_match_hmm(pat, txt, d, pd, w, l, obs, ff);
        },
        [&](EngineObserver* obs, bool ff) {
          return per_diagonal_hmm(pat, txt, d, pd, w, l, obs, ff);
        },
        "hmm m=" + std::to_string(m) + " n=" + std::to_string(n) +
            " d=" + std::to_string(d) + " w=" + std::to_string(w));
  }
}

TEST(StringMatchCountedBarriers, RaggedOverlayMatchesThePerDiagonalWavefront) {
  // DMMs of 12, 5, 33 and 8 threads: partial warps, and DMMs with more
  // and fewer workers than the pattern has symbols.
  Rng rng(11);
  const std::int64_t m = 10, n = 160, d = 4, w = 8, l = 12;
  const MachineOverlay overlay{{DmmShape{12, std::nullopt, {}},
                                DmmShape{5, std::nullopt, {}},
                                DmmShape{33, MemorySpec{0, 2}, {}},
                                DmmShape{8, std::nullopt, {}}}};
  const MachineOverlayScope scope(&overlay);
  const auto pat = random_symbols(m, rng);
  const auto txt = random_symbols(n, rng);
  expect_same_runs(
      [&](EngineObserver* obs, bool ff) {
        return alg::string_match_hmm(pat, txt, d, 8, w, l, obs, ff);
      },
      [&](EngineObserver* obs, bool ff) {
        return per_diagonal_hmm(pat, txt, d, 8, w, l, obs, ff);
      },
      "ragged overlay");
}

}  // namespace
}  // namespace hmm
