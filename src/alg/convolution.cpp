#include "alg/convolution.hpp"

#include <algorithm>

#include "alg/device.hpp"
#include "alg/plans.hpp"
#include "core/error.hpp"
#include "core/mathutil.hpp"

namespace hmm::alg {

namespace {

void check_shapes(std::int64_t m, std::int64_t n, std::int64_t x_len) {
  HMM_REQUIRE(m >= 1 && n >= 1, "convolution: m, n must be >= 1");
  HMM_REQUIRE(x_len == conv_signal_length(m, n),
              "convolution: x must have length n + m - 1");
}

}  // namespace

BaselineConv convolution_sequential(std::span<const Word> a,
                                    std::span<const Word> x) {
  const auto m = static_cast<std::int64_t>(a.size());
  const auto n = static_cast<std::int64_t>(x.size()) - m + 1;
  check_shapes(m, n, static_cast<std::int64_t>(x.size()));

  SequentialRam ram(m + static_cast<std::int64_t>(x.size()) + n);
  const Address ax = 0, xx = m, zx = m + static_cast<std::int64_t>(x.size());
  ram.load(ax, a);
  ram.load(xx, x);
  for (Address i = 0; i < n; ++i) {
    Word acc = 0;
    for (std::int64_t j = 0; j < m; ++j) {
      acc += ram.read(ax + j) * ram.read(xx + i + j);
      ram.tick();  // one multiply-add
    }
    ram.write(zx + i, acc);
  }
  return {ram.dump(zx, n), ram.time()};
}

BaselineConv convolution_pram(std::span<const Word> a,
                              std::span<const Word> x,
                              std::int64_t processors) {
  const auto m = static_cast<std::int64_t>(a.size());
  const auto n = static_cast<std::int64_t>(x.size()) - m + 1;
  check_shapes(m, n, static_cast<std::int64_t>(x.size()));
  HMM_REQUIRE(processors >= 1, "convolution: processors must be >= 1");
  const bool teams = processors > n;
  HMM_REQUIRE(!teams || processors % n == 0,
              "convolution: p > n requires p to be a multiple of n");
  const std::int64_t k = teams ? processors / n : 1;
  const std::int64_t chunk = ceil_div(m, k);

  // Memory: a, x, then k partial rows of n cells each (row 0 becomes z).
  Pram pram(processors, m + static_cast<std::int64_t>(x.size()) + k * n,
            Pram::Mode::kCrcw);  // a[j] is read concurrently (CREW)
  const Address ax = 0, xx = m, sx = m + static_cast<std::int64_t>(x.size());
  pram.load(ax, a);
  pram.load(xx, x);

  // Each (team b, output i) accumulates its tap chunk; one parallel step
  // per tap keeps the unit-cost charging honest: chunk * ceil(kn/p)
  // = chunk * ceil(n*k/(n*k)) ... = m/k steps when p = kn, i.e. mn/p.
  for (std::int64_t jj = 0; jj < chunk; ++jj) {
    pram.parallel_step(k * n, [&](std::int64_t item, PramAccess& acc) {
      const std::int64_t b = item / n;
      const std::int64_t i = item % n;
      const std::int64_t j = b * chunk + jj;
      if (j >= std::min(m, (b + 1) * chunk)) return;
      const Word prev = jj == 0 ? 0 : acc.read(sx + b * n + i);
      acc.write(sx + b * n + i,
                prev + acc.read(ax + j) * acc.read(xx + i + j));
    });
  }

  // Tree-reduce the k partial rows onto row 0.
  std::int64_t rows = k;
  while (rows > 1) {
    const std::int64_t half = ceil_div(rows, 2);
    pram.parallel_step((rows - half) * n, [&](std::int64_t c, PramAccess& acc) {
      acc.write(sx + c, acc.read(sx + c) + acc.read(sx + half * n + c));
    });
    rows = half;
  }
  return {pram.dump(sx, n), pram.time()};
}

MachineConv convolution_mm(Machine& machine, MemorySpace space,
                           Address a_base, std::int64_t m, Address x_base,
                           std::int64_t n, Address z_base,
                           Address scratch_base) {
  HMM_REQUIRE(m >= 1 && n >= 1, "convolution: m, n must be >= 1");
  const std::int64_t p = machine.num_threads();
  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    co_await device_convolution(t, space, a_base, m, x_base, n, z_base,
                                scratch_base, t.thread_id(), p,
                                BarrierScope::kMachine);
  });
  BankMemory& mem = space == MemorySpace::kShared ? machine.shared_memory(0)
                                                  : machine.global_memory();
  return {mem.dump(z_base, n), std::move(report)};
}

namespace {

MachineConv convolution_standalone(std::span<const Word> a,
                                   std::span<const Word> x,
                                   std::int64_t threads, std::int64_t width,
                                   Cycle latency, MemorySpace space,
                                   EngineObserver* observer,
                                   bool fast_forward) {
  const auto m = static_cast<std::int64_t>(a.size());
  const auto n = static_cast<std::int64_t>(x.size()) - m + 1;
  check_shapes(m, n, static_cast<std::int64_t>(x.size()));
  const std::int64_t k = threads > n ? ceil_div(threads, n) : 1;
  const std::int64_t size =
      m + static_cast<std::int64_t>(x.size()) + n + k * n;
  const Address ax = 0, xx = m, zx = m + static_cast<std::int64_t>(x.size()),
                sx = zx + n;

  Machine machine = space == MemorySpace::kShared
                        ? Machine::dmm(width, latency, threads, size)
                        : Machine::umm(width, latency, threads, size);
  machine.set_observer(observer);
  machine.set_fast_forward(fast_forward);
  BankMemory& mem = space == MemorySpace::kShared
                        ? machine.shared_memory(0)
                        : machine.global_memory();
  mem.load(ax, a);
  mem.load(xx, x);
  return convolution_mm(machine, space, ax, m, xx, n, zx, sx);
}

}  // namespace

MachineConv convolution_dmm(std::span<const Word> a, std::span<const Word> x,
                            std::int64_t threads, std::int64_t width,
                            Cycle latency) {
  return convolution_standalone(a, x, threads, width, latency,
                                MemorySpace::kShared, nullptr,
                                /*fast_forward=*/true);
}

MachineConv convolution_umm(std::span<const Word> a, std::span<const Word> x,
                            std::int64_t threads, std::int64_t width,
                            Cycle latency, EngineObserver* observer,
                            bool fast_forward) {
  return convolution_standalone(a, x, threads, width, latency,
                                MemorySpace::kGlobal, observer, fast_forward);
}

MachineConv convolution_hmm(Machine& machine, std::int64_t m,
                            std::int64_t n) {
  HMM_REQUIRE(m >= 1 && n >= 1, "convolution: m, n must be >= 1");
  HMM_REQUIRE(machine.has_global() && machine.has_shared(),
              "Theorem 9 needs both memories (an HMM)");
  const std::int64_t d = machine.num_dmms();
  HMM_REQUIRE(n % d == 0, "convolution: n must be a multiple of d");
  const std::int64_t slice = n / d;
  HMM_REQUIRE(m <= slice,
              "convolution: Corollary 10 regime requires m <= n/d");

  const std::int64_t x_len = conv_signal_length(m, n);
  const Address g_a = 0, g_x = m, g_z = m + x_len;
  HMM_REQUIRE(machine.global_memory().size() >= m + x_len + n,
              "global memory too small");

  // Shared layout per DMM: a copy of a, the slice + halo of x, the z
  // slice, and the team scratch when p/d > slice.
  const std::int64_t pd = machine.topology().threads_on(0);
  const std::int64_t k = pd > slice ? ceil_div(pd, slice) : 1;
  const std::int64_t slice_x = slice + m - 1;
  const Address s_a = 0, s_x = m, s_z = m + slice_x, s_scratch = s_z + slice;
  HMM_REQUIRE(machine.shared_memory(0).size() >=
                  m + slice_x + slice + k * slice,
              "shared memory too small for the §IX staging layout");
  HMM_REQUIRE(pd <= slice || pd % slice == 0,
              "convolution: p/d > n/d requires (n/d) | (p/d)");

  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    const std::int64_t self = t.local_thread_id();
    const std::int64_t workers = t.dmm_thread_count();
    const Address i0 = t.dmm_id() * slice;  // first output of this DMM

    // Step 1: stage a and x[i0 .. i0 + slice_x) into shared memory.
    co_await device_copy(t, MemorySpace::kShared, s_a, MemorySpace::kGlobal,
                         g_a, m, self, workers);
    co_await device_copy(t, MemorySpace::kShared, s_x, MemorySpace::kGlobal,
                         g_x + i0, slice_x, self, workers);
    co_await t.barrier(BarrierScope::kDmm);

    // Step 2: Theorem-8 convolution entirely inside latency-1 shared
    // memory.
    co_await device_convolution(t, MemorySpace::kShared, s_a, m, s_x, slice,
                                s_z, s_scratch, self, workers,
                                BarrierScope::kDmm);
    co_await t.barrier(BarrierScope::kDmm);

    // Step 3: copy the z slice back to global memory.
    co_await device_copy(t, MemorySpace::kGlobal, g_z + i0,
                         MemorySpace::kShared, s_z, slice, self, workers);
  });
  return {machine.global_memory().dump(g_z, n), std::move(report)};
}

MachineConv convolution_hmm_chunked(std::span<const Word> a,
                                    std::span<const Word> x,
                                    std::int64_t num_dmms,
                                    std::int64_t threads_per_dmm,
                                    std::int64_t width, Cycle latency,
                                    std::int64_t chunk) {
  const auto m = static_cast<std::int64_t>(a.size());
  const auto n = static_cast<std::int64_t>(x.size()) - m + 1;
  check_shapes(m, n, static_cast<std::int64_t>(x.size()));
  const std::int64_t d = num_dmms;
  HMM_REQUIRE(d >= 1 && n % d == 0, "convolution: n must be a multiple of d");
  const std::int64_t slice = n / d;
  HMM_REQUIRE(chunk >= 1 && m <= chunk,
              "convolution: chunk must be >= 1 and >= m (the halo must fit)");
  const std::int64_t t_eff = std::min(chunk, slice);
  const std::int64_t pd = threads_per_dmm;
  const std::int64_t k = pd > t_eff ? ceil_div(pd, t_eff) : 1;
  HMM_REQUIRE(pd <= t_eff || pd % t_eff == 0,
              "convolution: p/d > chunk requires chunk | (p/d)");

  // Shared layout: resident filter, one chunk's x window, its z chunk,
  // and the team scratch.  This is what fits a 48KB shared memory even
  // when the slice does not.
  const std::int64_t win = t_eff + m - 1;
  const Address s_a = 0, s_x = m, s_z = m + win, s_scr = s_z + t_eff;
  const std::int64_t shared_size = s_scr + k * t_eff;
  const std::int64_t x_len = conv_signal_length(m, n);
  const Address g_a = 0, g_x = m, g_z = m + x_len;

  Machine machine = Machine::hmm(width, latency, d, pd, shared_size,
                                 m + x_len + n);
  machine.global_memory().load(g_a, a);
  machine.global_memory().load(g_x, x);

  RunReport report = machine.run([&](ThreadCtx& t) -> SimTask {
    const std::int64_t self = t.local_thread_id();
    const std::int64_t workers = t.dmm_thread_count();
    const Address base = t.dmm_id() * slice;  // this DMM's first output

    // The filter is staged ONCE and stays resident across chunks.
    co_await device_copy(t, MemorySpace::kShared, s_a, MemorySpace::kGlobal,
                         g_a, m, self, workers);
    co_await t.barrier(BarrierScope::kDmm);

    for (std::int64_t off = 0; off < slice; off += t_eff) {
      const std::int64_t len = std::min(t_eff, slice - off);
      // Stage this chunk's window, convolve at latency 1, write back.
      co_await device_copy(t, MemorySpace::kShared, s_x,
                           MemorySpace::kGlobal, g_x + base + off,
                           len + m - 1, self, workers);
      co_await t.barrier(BarrierScope::kDmm);
      co_await device_convolution(t, MemorySpace::kShared, s_a, m, s_x, len,
                                  s_z, s_scr,
                                  self < len * k ? self : kNoWorker,
                                  std::min(workers, len * k),
                                  BarrierScope::kDmm);
      co_await t.barrier(BarrierScope::kDmm);
      co_await device_copy(t, MemorySpace::kGlobal, g_z + base + off,
                           MemorySpace::kShared, s_z, len, self, workers);
      co_await t.barrier(BarrierScope::kDmm);
    }
  });
  return {machine.global_memory().dump(g_z, n), std::move(report)};
}

MachineConv convolution_hmm(std::span<const Word> a, std::span<const Word> x,
                            std::int64_t num_dmms,
                            std::int64_t threads_per_dmm, std::int64_t width,
                            Cycle latency, EngineObserver* observer,
                            bool fast_forward) {
  const auto m = static_cast<std::int64_t>(a.size());
  const auto n = static_cast<std::int64_t>(x.size()) - m + 1;
  check_shapes(m, n, static_cast<std::int64_t>(x.size()));
  HMM_REQUIRE(n % num_dmms == 0, "convolution: n must be a multiple of d");
  const std::int64_t slice = n / num_dmms;
  const std::int64_t k =
      threads_per_dmm > slice ? ceil_div(threads_per_dmm, slice) : 1;
  const std::int64_t shared_size =
      m + (slice + m - 1) + slice + k * slice;
  const std::int64_t global_size = m + conv_signal_length(m, n) + n;

  Machine machine = Machine::hmm(width, latency, num_dmms, threads_per_dmm,
                                 shared_size, global_size);
  machine.set_observer(observer);
  machine.set_fast_forward(fast_forward);
  machine.global_memory().load(0, a);
  machine.global_memory().load(m, x);
  return convolution_hmm(machine, m, n);
}

// ---- plan twins (plans.hpp) -------------------------------------------------

std::optional<analysis::AccessPlan> build_conv_plan(const PlanPoint& point) {
  const std::int64_t m = point.m;
  const std::int64_t n = point.n;
  HMM_REQUIRE(m >= 1 && n >= 1, "conv plan: m, n must be >= 1");
  const std::int64_t x_len = conv_signal_length(m, n);

  if (point.model == "umm") {
    // convolution_umm layout: a, x, z, scratch.
    const Address ax = 0, xx = m, zx = m + x_len, sx = zx + n;
    HMM_REQUIRE(point.p <= n || point.p % n == 0,
                "conv plan: p > n requires n | p");
    auto plan = analysis::build_access_plan(
        "conv/umm", {point.w, 1, point.p}, [&](analysis::PlanCtx& c) {
          c.set_label("convolve");
          plan_device_convolution(c, MemorySpace::kGlobal, ax, m, xx, n, zx,
                                  sx, c.thread_id(), point.p,
                                  BarrierScope::kMachine);
        });
    plan.claimed_groups = 2;
    return plan;
  }
  if (point.model != "hmm") return std::nullopt;

  const std::int64_t d = point.d;
  HMM_REQUIRE(d >= 1 && n % d == 0, "conv plan: n must be a multiple of d");
  HMM_REQUIRE(point.p % d == 0, "conv plan: d must divide p");
  const std::int64_t slice = n / d;
  const std::int64_t pd = point.p / d;
  HMM_REQUIRE(m <= slice, "conv plan: Corollary 10 regime requires m <= n/d");
  HMM_REQUIRE(pd <= slice || pd % slice == 0,
              "conv plan: p/d > n/d requires (n/d) | (p/d)");
  const std::int64_t slice_x = slice + m - 1;
  const Address g_a = 0, g_x = m, g_z = m + x_len;
  const Address s_a = 0, s_x = m, s_z = m + slice_x, s_scratch = s_z + slice;

  // Every DMM runs one program on its own slice: only the global x and
  // z addresses move with the DMM, by dmm_id() * slice (dmm_affine).
  auto plan = analysis::build_access_plan(
      "conv/hmm", {point.w, d, pd, /*dmm_affine=*/true},
      [&](analysis::PlanCtx& c) {
        const std::int64_t self = c.local_thread_id();
        const Address i0 = c.dmm_id() * slice;

        c.set_label("stage-in");
        plan_device_copy(c, MemorySpace::kShared, s_a, MemorySpace::kGlobal,
                         g_a, m, self, pd);
        plan_device_copy(c, MemorySpace::kShared, s_x, MemorySpace::kGlobal,
                         g_x + i0, slice_x, self, pd);
        c.barrier(BarrierScope::kDmm);

        c.set_label("convolve");
        plan_device_convolution(c, MemorySpace::kShared, s_a, m, s_x, slice,
                                s_z, s_scratch, self, pd, BarrierScope::kDmm);
        c.barrier(BarrierScope::kDmm);

        c.set_label("stage-out");
        plan_device_copy(c, MemorySpace::kGlobal, g_z + i0,
                         MemorySpace::kShared, s_z, slice, self, pd);
      });
  plan.claimed_degree = 1;
  // The z region starts at m + (n + m - 1): one cell short of a group
  // boundary whenever w | 2m, so the write-back batches straddle two
  // groups.  That is the §IX layout, not an accident — claim 2.
  plan.claimed_groups = 2;
  return plan;
}

}  // namespace hmm::alg
