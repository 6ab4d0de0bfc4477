#include "alg/string_match.hpp"

#include <algorithm>

#include "alg/device.hpp"
#include "core/error.hpp"
#include "core/mathutil.hpp"

namespace hmm::alg {

namespace {

void check_inputs(std::span<const Word> pattern, std::span<const Word> text) {
  HMM_REQUIRE(!pattern.empty(), "string match: pattern must be non-empty");
  HMM_REQUIRE(!text.empty(), "string match: text must be non-empty");
  HMM_REQUIRE(pattern.size() <= text.size(),
              "string match: pattern longer than text");
}

/// Row stride for the DP table: padded so that (cols - 1) is odd, which
/// makes the anti-diagonal access pattern (stride cols - 1 across
/// threads) hit distinct banks for any power-of-two width.
std::int64_t padded_cols(std::int64_t text_len) {
  const std::int64_t cols = text_len + 1;
  return cols % 2 == 0 ? cols + 1 : cols;
}

/// The anti-diagonal wavefront over one DP band, in `space`.
/// Table is (m+1) x cols row-major at `table`; text of `text_len` words
/// at `txt`; pattern of m words at `pat`.  Collective over `scope`.
SubTask device_asm_band(ThreadCtx& t, MemorySpace space, Address pat,
                        std::int64_t m, Address txt, std::int64_t text_len,
                        Address table, std::int64_t cols, std::int64_t self,
                        std::int64_t workers, BarrierScope scope) {
  // Borders: D[0][j] = 0 (any substring may start here), D[i][0] = i.
  if (self != kNoWorker) {
    for (Address j = self; j <= text_len; j += workers) {
      co_await t.write(space, table + j, 0);
    }
    for (Address i = 1 + self; i <= m; i += workers) {
      co_await t.write(space, table + i * cols, i);
    }
  }

  // Wavefront: cells (i, j) with i + j = diag are independent, and every
  // thread meets the others at the borders' barrier and after each of
  // the diagonals 2 .. m + text_len.  Diagonal diag holds
  // min(diag - 1, m, text_len, m + text_len + 1 - diag) cells, so thread
  // `self` holds one exactly on diagonals [self + 2, m + text_len - self]
  // when self < min(m, text_len), and on none otherwise; the barriers it
  // meets with nothing to do in between are one counted barrier.
  if (self == kNoWorker || self >= std::min(m, text_len)) {
    co_await t.barrier(scope, m + text_len);
    co_return;
  }
  const std::int64_t last = m + text_len - self;
  co_await t.barrier(scope, 1 + self);  // borders + `self` leading diagonals
  for (std::int64_t diag = self + 2; diag <= last; ++diag) {
    const std::int64_t lo = std::max<std::int64_t>(1, diag - text_len);
    const std::int64_t hi = std::min<std::int64_t>(m, diag - 1);
    for (std::int64_t i = lo + self; i <= hi; i += workers) {
      const std::int64_t j = diag - i;
      const Word pc = co_await t.read(space, pat + i - 1);
      const Word tc = co_await t.read(space, txt + j - 1);
      const Word up_left =
          co_await t.read(space, table + (i - 1) * cols + j - 1);
      const Word up = co_await t.read(space, table + (i - 1) * cols + j);
      const Word left = co_await t.read(space, table + i * cols + j - 1);
      co_await t.compute();  // the three-way min + mismatch test
      const Word best = std::min({up_left + (pc != tc ? 1 : 0), up + 1,
                                  left + 1});
      co_await t.write(space, table + i * cols + j, best);
    }
    // The last diagonal's barrier and the `self` trailing ones.
    co_await t.barrier(scope, diag == last ? 1 + self : 1);
  }
}

}  // namespace

BaselineMatch string_match_sequential(std::span<const Word> pattern,
                                      std::span<const Word> text) {
  check_inputs(pattern, text);
  const auto m = static_cast<std::int64_t>(pattern.size());
  const auto n = static_cast<std::int64_t>(text.size());

  SequentialRam ram(m + n + 2 * (n + 1));
  const Address pat = 0, txt = m, prev = m + n, cur = prev + (n + 1);
  ram.load(pat, pattern);
  ram.load(txt, text);
  // Row 0 = 0.
  for (Address j = 0; j <= n; ++j) ram.write(prev + j, 0);
  Address row_prev = prev, row_cur = cur;
  for (std::int64_t i = 1; i <= m; ++i) {
    ram.write(row_cur, i);
    for (std::int64_t j = 1; j <= n; ++j) {
      const Word pc = ram.read(pat + i - 1);
      const Word tc = ram.read(txt + j - 1);
      const Word best = std::min({ram.read(row_prev + j - 1) + (pc != tc),
                                  ram.read(row_prev + j) + 1,
                                  ram.read(row_cur + j - 1) + 1});
      ram.tick();
      ram.write(row_cur + j, best);
    }
    std::swap(row_prev, row_cur);
  }
  std::vector<Word> out = ram.dump(row_prev + 1, n);
  return {std::move(out), ram.time()};
}

MachineMatch string_match_umm(std::span<const Word> pattern,
                              std::span<const Word> text,
                              std::int64_t threads, std::int64_t width,
                              Cycle latency, EngineObserver* observer,
                              bool fast_forward) {
  check_inputs(pattern, text);
  const auto m = static_cast<std::int64_t>(pattern.size());
  const auto n = static_cast<std::int64_t>(text.size());
  const std::int64_t cols = padded_cols(n);
  const std::int64_t size = m + n + (m + 1) * cols;
  const Address pat = 0, txt = m, table = m + n;

  Machine machine = Machine::umm(width, latency, threads, size);
  machine.set_observer(observer);
  machine.set_fast_forward(fast_forward);
  machine.global_memory().load(pat, pattern);
  machine.global_memory().load(txt, text);
  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    co_await device_asm_band(t, MemorySpace::kGlobal, pat, m, txt, n, table,
                             cols, t.thread_id(), t.num_threads(),
                             BarrierScope::kMachine);
  });
  return {machine.global_memory().dump(table + m * cols + 1, n),
          std::move(report)};
}

MachineMatch string_match_hmm(std::span<const Word> pattern,
                              std::span<const Word> text,
                              std::int64_t num_dmms,
                              std::int64_t threads_per_dmm,
                              std::int64_t width, Cycle latency,
                              EngineObserver* observer, bool fast_forward) {
  check_inputs(pattern, text);
  const auto m = static_cast<std::int64_t>(pattern.size());
  const auto n = static_cast<std::int64_t>(text.size());
  const std::int64_t d = num_dmms;
  HMM_REQUIRE(d >= 1 && n % d == 0, "string match: n must be a multiple of d");
  const std::int64_t c = n / d;

  // Each DMM's window: its slice plus a 2m-column halo on the left
  // (D[i][j] <= i bounds the witness length by 2i, so the halo makes the
  // sliced DP exact on the slice's columns).
  const std::int64_t max_wl = c + 2 * m;  // worst-case window length
  const std::int64_t cols = padded_cols(max_wl);
  const Address s_pat = 0, s_txt = m, s_table = m + max_wl;
  const std::int64_t shared_size = s_table + (m + 1) * cols;
  const Address g_pat = 0, g_txt = m, g_out = m + n;
  const std::int64_t global_size = m + n + n;

  Machine machine = Machine::hmm(width, latency, d, threads_per_dmm,
                                 shared_size, global_size);
  machine.set_observer(observer);
  machine.set_fast_forward(fast_forward);
  machine.global_memory().load(g_pat, pattern);
  machine.global_memory().load(g_txt, text);

  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    const std::int64_t self = t.local_thread_id();
    const std::int64_t workers = t.dmm_thread_count();
    const std::int64_t slice0 = t.dmm_id() * c;          // first text pos
    const Address ws = std::max<std::int64_t>(0, slice0 - 2 * m);
    const std::int64_t wl = slice0 + c - ws;             // window length

    // Stage pattern and window (both coalesced).
    co_await device_copy(t, MemorySpace::kShared, s_pat, MemorySpace::kGlobal,
                         g_pat, m, self, workers);
    co_await device_copy(t, MemorySpace::kShared, s_txt, MemorySpace::kGlobal,
                         g_txt + ws, wl, self, workers);
    co_await t.barrier(BarrierScope::kDmm);

    // Wavefront entirely inside latency-1 shared memory.
    co_await device_asm_band(t, MemorySpace::kShared, s_pat, m, s_txt, wl,
                             s_table, cols, self, workers,
                             BarrierScope::kDmm);

    // Write back this slice of row m: text position slice0 + k lives at
    // window column (slice0 + k - ws) + 1.
    const Address row_m = s_table + m * cols;
    for (Address k = self; k < c; k += workers) {
      const Word v =
          co_await t.read(MemorySpace::kShared, row_m + (slice0 + k - ws) + 1);
      co_await t.write(MemorySpace::kGlobal, g_out + slice0 + k, v);
    }
  });
  return {machine.global_memory().dump(g_out, n), std::move(report)};
}

}  // namespace hmm::alg
