#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/functional.h"

namespace safespec::sim {

namespace {
/// Deadlock backstop: a core that commits nothing for this many cycles is
/// wedged. It only fires on malformed programs (e.g. committed control
/// flow ran off the end of the text without a halt) and on undersized
/// kStall shadows whose full table nothing can drain.
constexpr Cycle kWedgeCycles = 100'000;
}  // namespace

void SamplingSpec::validate() const {
  if (enabled() && detail_instrs == 0) {
    throw std::invalid_argument(
        "sampling.detail_instrs must be positive when sampling is enabled "
        "(fast_forward_interval > 0), or nothing is ever measured");
  }
}

Simulator::Simulator(const cpu::CoreConfig& config, isa::Program program) {
  const int n = std::max(1, config.cores);
  std::vector<isa::Program> programs;
  programs.reserve(static_cast<std::size_t>(n));
  for (int c = 1; c < n; ++c) programs.push_back(program);  // shares pages
  programs.insert(programs.begin(), std::move(program));
  build_cores(config, std::move(programs));
}

Simulator::Simulator(const cpu::CoreConfig& config,
                     std::vector<isa::Program> programs) {
  if (programs.empty()) {
    throw std::invalid_argument("Simulator: at least one program required");
  }
  build_cores(config, std::move(programs));
}

void Simulator::build_cores(const cpu::CoreConfig& config,
                            std::vector<isa::Program> programs) {
  // The shared L2/L3 get the same policy tuning (SHARP cache protection,
  // detector thresholds) the cores apply to their private levels.
  memory::HierarchyConfig shared_config = config.hierarchy;
  policy::named_policy(config.policy)
      .tune(shared_config, config.sharp_alarm_threshold,
            config.sharp_alarm_epoch);
  shared_levels_ = std::make_unique<memory::SharedLevels>(shared_config);
  ctx_.reserve(programs.size());
  for (std::size_t c = 0; c < programs.size(); ++c) {
    auto ctx = std::make_unique<CoreContext>(std::move(programs[c]));
    ctx->core = std::make_unique<cpu::Core>(
        config, &ctx->program, &ctx->mem, &ctx->page_table,
        *shared_levels_, static_cast<int>(c));
    ctx_.push_back(std::move(ctx));
  }
}

Simulator::~Simulator() = default;
Simulator::Simulator(Simulator&&) noexcept = default;
Simulator& Simulator::operator=(Simulator&&) noexcept = default;

FunctionalEngine& Simulator::functional_engine() {
  if (!engine_) {
    engine_ = std::make_unique<FunctionalEngine>(
        &ctx_[0]->program, &ctx_[0]->mem, &ctx_[0]->page_table);
  }
  return *engine_;
}

void Simulator::map_region(Addr base, std::uint64_t bytes,
                           memory::PagePerm perm) {
  for (int c = 0; c < num_cores(); ++c) map_region_on(c, base, bytes, perm);
}

void Simulator::map_region_on(int c, Addr base, std::uint64_t bytes,
                              memory::PagePerm perm) {
  memory::map_image({{base, bytes, perm}}, {}, mem(c), ctx_[c]->page_table);
}

void Simulator::map_text() {
  for (int c = 0; c < num_cores(); ++c) map_text_on(c);
}

void Simulator::map_text_on(int c) {
  CoreContext& ctx = *ctx_[c];
  for (const Addr pc : ctx.program.pcs()) {
    const Addr page = page_of(pc);
    if (!ctx.page_table.translate(page).present) {
      ctx.page_table.map_identity(page, /*kernel_only=*/false);
    }
  }
}

void Simulator::poke(Addr addr, std::uint64_t value) {
  for (const auto& ctx : ctx_) ctx->mem.write64(addr, value);
}

SimResult Simulator::run(Cycle max_cycles, std::uint64_t max_instrs) {
  return snapshot(run_cores(max_cycles, max_instrs));
}

cpu::StopReason Simulator::run_cores(Cycle max_cycles,
                                     std::uint64_t max_instrs) {
  cpu::Core& primary = *ctx_[0]->core;
  const std::uint64_t committed_at_start = primary.stats().committed_instrs;

  // Per-core schedule state. `t` counts schedule cycles since this call
  // began, and every live core's clock advances by exactly one per
  // schedule cycle, so a core's own cycle count tracks `t`.
  struct Sched {
    cpu::Core* core = nullptr;
    bool done = false;
    std::uint64_t last_committed = 0;
    Cycle last_progress = 0;  ///< `t` after the core's latest commit
    Cycle wake = 0;           ///< core cycle at which it must next step
  };
  std::vector<Sched> sched;
  sched.reserve(ctx_.size());
  for (const auto& ctx : ctx_) {
    cpu::Core* core = ctx->core.get();
    sched.push_back({core, core->finished(), core->stats().committed_instrs});
  }
  const auto check_wedge = [](Sched& s, Cycle t) {
    if (t - s.last_progress > kWedgeCycles) s.done = true;
  };

  // One schedule cycle steps every live core whose quiet window has
  // ended, core 0 first — fully deterministic — and only advances the
  // others' clocks. When every live core is quiet the whole machine jumps
  // to the earliest wakeup, capped so the cycle budget and the wedge
  // backstop still fire on exactly the cycle they would when stepping.
  // The cycle budget bounds *schedule* cycles, so a spinning secondary
  // core cannot outlive it after core 0 finishes.
  Cycle t = 0;
  for (;;) {
    bool any_live = false;
    Cycle quiet = cpu::Core::kNeverCycle;  // cycles every live core idles
    for (const Sched& s : sched) {
      if (s.done) continue;
      any_live = true;
      const Cycle now = s.core->now();
      quiet = std::min(quiet, s.wake > now ? s.wake - now : 0);
    }
    if (!any_live) break;
    if (t >= max_cycles) return cpu::StopReason::kMaxCycles;
    if (primary.stats().committed_instrs - committed_at_start >= max_instrs) {
      return cpu::StopReason::kMaxInstrs;
    }
    if (quiet > 0) {
      Cycle n = std::min(quiet, max_cycles - t);
      for (const Sched& s : sched) {
        if (!s.done) n = std::min(n, s.last_progress + kWedgeCycles + 1 - t);
      }
      t += n;
      for (std::size_t i = 0; i < sched.size(); ++i) {
        if (sched[i].done) continue;
        sched[i].core->skip_quiet(n);
        check_wedge(sched[i], t);
      }
      continue;
    }
    for (std::size_t i = 0; i < sched.size(); ++i) {
      Sched& s = sched[i];
      if (s.done) continue;
      if (s.core->now() < s.wake) {
        s.core->skip_quiet(1);
      } else {
        s.core->step();
        s.wake = s.core->quiet_until();
      }
      const std::uint64_t committed = s.core->stats().committed_instrs;
      if (committed != s.last_committed) {
        s.last_committed = committed;
        s.last_progress = t + 1;
      } else {
        check_wedge(s, t + 1);
      }
      if (s.core->finished()) s.done = true;
    }
    ++t;
  }
  // Every core ran to rest: report the primary core's fate. A halted
  // core carries its own reason (set at the halt/fault commit site); a
  // finished-or-wedged one never reached a halt.
  return primary.halted() ? primary.stop_reason()
                          : cpu::StopReason::kFaultNoHandler;
}

SimResult Simulator::run_sampled(const SamplingSpec& spec, Cycle max_cycles,
                                 std::uint64_t max_instrs) {
  spec.validate();
  // Disabled sampling is *exactly* the detailed run — the golden/ff=0
  // guarantee: bit-identical cycle counts.
  if (!spec.enabled()) return run(max_cycles, max_instrs);
  if (ctx_.size() > 1) {
    throw std::invalid_argument(
        "sampled simulation (fast_forward_interval > 0) supports a single "
        "core only; run cores>1 machines in detailed mode");
  }
  cpu::Core& core0 = *ctx_[0]->core;

  // Cached engine: predecode is paid once per simulator; reset() makes
  // this call's behaviour bit-identical to a freshly built engine.
  FunctionalEngine& engine = functional_engine();
  engine.reset();
  SamplingStats s;
  s.enabled = true;
  std::vector<double> ipc_samples;
  std::uint64_t remaining = max_instrs;
  Cycle cycles_left = max_cycles;  // detailed cycles only
  std::uint64_t ff_commits = 0;
  std::uint64_t ff_faults = 0;
  auto stop = cpu::StopReason::kMaxInstrs;
  bool done = false;

  // One detailed segment of up to `n` committed instructions (the core
  // may overshoot by up to commit_width - 1; the actual count is what we
  // account). Decrements the shared cycle/instruction budgets.
  const auto detail_segment = [&](std::uint64_t n, std::uint64_t& commits,
                                  Cycle& cycles) {
    const std::uint64_t c0 = core0.stats().committed_instrs;
    const Cycle y0 = core0.stats().cycles;
    const auto seg_stop = run_cores(cycles_left, n);
    commits = core0.stats().committed_instrs - c0;
    cycles = core0.stats().cycles - y0;
    cycles_left = cycles >= cycles_left ? 0 : cycles_left - cycles;
    remaining -= std::min(commits, remaining);
    return seg_stop;
  };

  while (remaining > 0 && !done) {
    // ---- fast-forward (functional, no cycles) --------------------------
    const std::uint64_t c0 = engine.committed();
    const std::uint64_t f0 = engine.faults();
    const auto ff_stop =
        engine.run(std::min(spec.fast_forward_interval, remaining));
    ff_commits += engine.committed() - c0;
    ff_faults += engine.faults() - f0;
    remaining -= std::min(engine.committed() - c0, remaining);
    if (ff_stop != cpu::StopReason::kMaxInstrs) {
      stop = ff_stop;  // program finished (halt / unhandled fault)
      break;
    }
    if (remaining == 0) break;

    // ---- detailed window: restore, warm up, measure --------------------
    // The engine stored into core 0's memory, so only the registers and
    // pc cross over; warming state survives, as in Core::restart_at.
    const ArchCheckpoint at = engine.checkpoint();
    core0.restore_arch(at.regs, at.pc);
    if (spec.warmup_instrs > 0) {
      std::uint64_t commits = 0;
      Cycle cycles = 0;
      const auto st = detail_segment(std::min(spec.warmup_instrs, remaining),
                                     commits, cycles);
      s.warmup_commits += commits;
      if (st != cpu::StopReason::kMaxInstrs) {
        stop = st;
        done = true;
      }
    }
    if (!done && remaining > 0) {
      std::uint64_t commits = 0;
      Cycle cycles = 0;
      const auto st = detail_segment(std::min(spec.detail_instrs, remaining),
                                     commits, cycles);
      s.measured_commits += commits;
      s.measured_cycles += cycles;
      if (commits > 0 && cycles > 0) {
        ++s.windows;
        ipc_samples.push_back(static_cast<double>(commits) /
                              static_cast<double>(cycles));
      }
      if (st != cpu::StopReason::kMaxInstrs) {
        stop = st;
        done = true;
      }
    }
    if (done || remaining == 0) break;

    // ---- hand the detailed state back to the engine --------------------
    ArchCheckpoint cp;
    for (int r = 0; r < kNumArchRegs; ++r) {
      cp.regs[static_cast<std::size_t>(r)] =
          core0.reg(static_cast<RegIndex>(r));
    }
    cp.pc = core0.next_commit_pc();
    // Keep the engine's counters global (fast-forwarded + detailed) so
    // checkpoints and kRdCycle stay monotone across windows.
    cp.committed = ff_commits + core0.stats().committed_instrs;
    cp.faults = ff_faults + core0.stats().faults;
    cp.started = true;
    engine.restore(cp);
  }

  // The documented SamplingStats contract, keyed explicitly on the
  // window count (ipc_samples grows in lockstep with s.windows): the
  // mean needs one window; stddev/ci95 need at least two — with a single
  // window the n-1 Bessel divisor would be a division by zero, and the
  // contract says both stay exactly 0.0.
  if (s.windows > 0) {
    double sum = 0.0;
    for (const double x : ipc_samples) sum += x;
    s.ipc_mean = sum / static_cast<double>(s.windows);
  }
  if (s.windows >= 2) {
    double sq = 0.0;
    for (const double x : ipc_samples) {
      sq += (x - s.ipc_mean) * (x - s.ipc_mean);
    }
    s.ipc_stddev = std::sqrt(sq / static_cast<double>(s.windows - 1));
    s.ipc_ci95 =
        1.96 * s.ipc_stddev / std::sqrt(static_cast<double>(s.windows));
  }
  s.fast_forwarded = ff_commits;

  SimResult r = snapshot(stop);
  // Core stats cover only the detailed windows; fold in the
  // fast-forwarded instructions and the faults the engine handled.
  r.committed_instrs += ff_commits;
  r.committed_all_cores += ff_commits;
  r.faults += ff_faults;
  if (s.windows > 0) r.ipc = s.ipc_mean;  // sampled point estimate
  r.sampling = s;
  return r;
}

SimResult Simulator::snapshot(cpu::StopReason stop) const {
  const cpu::Core& core = *ctx_[0]->core;
  SimResult r;
  r.stop = stop;
  r.cycles = core.stats().cycles;
  r.committed_instrs = core.stats().committed_instrs;
  r.ipc = core.stats().ipc();

  for (const auto& ctx : ctx_) {
    r.committed_all_cores += ctx->core->stats().committed_instrs;
  }
  r.cross_core_evictions = shared_levels_->cross_core_evictions();
  r.sharp_alarms = shared_levels_->sharp_alarms();
  r.sharp_detections = shared_levels_->sharp_detections();
  for (const auto& ctx : ctx_) {
    const memory::CacheHierarchy& h = ctx->core->hierarchy();
    r.sharp_alarms += h.l1i().sharp_alarms() + h.l1d().sharp_alarms();
    r.sharp_detections +=
        h.l1i().sharp_detections() + h.l1d().sharp_detections();
  }

  r.dcache_accesses = core.hierarchy().l1d().stats().accesses();
  r.dcache_misses = core.hierarchy().l1d().stats().misses.value();
  r.shadow_dcache_hits = core.shadow_dcache().stats().hits.value();

  // i-side figures use the per-instruction fetch accounting (each fetch
  // is served by exactly one of L1I / shadow / below).
  r.icache_accesses = core.stats().fetch_accesses;
  r.icache_misses = core.stats().fetch_misses;
  r.shadow_icache_hits = core.stats().fetch_shadow_hits;

  r.shadow_dcache_commit_rate = core.shadow_dcache().stats().commit_rate();
  r.shadow_icache_commit_rate = core.shadow_icache().stats().commit_rate();
  r.shadow_dcache_p9999 =
      core.shadow_dcache().stats().occupancy.percentile(0.9999);
  r.shadow_icache_p9999 =
      core.shadow_icache().stats().occupancy.percentile(0.9999);
  r.shadow_dtlb_p9999 =
      core.shadow_dtlb().stats().occupancy.percentile(0.9999);
  r.shadow_itlb_p9999 =
      core.shadow_itlb().stats().occupancy.percentile(0.9999);

  r.mispredicts = core.stats().mispredicts;
  r.squashed_instrs = core.stats().squashed_instrs;
  r.faults = core.stats().faults;
  return r;
}

}  // namespace safespec::sim
