// Cross-core attack variants: two cores sharing the L2/L3.
//
// The single-core PoCs put attacker and victim in one program; here the
// roles split across cores. The shared levels are tag-only and the
// address spaces are identity-mapped, so equal addresses on both cores
// alias the same shared line — the classic shared-library flush+reload
// setting. Private L1s stay coherent through flush_line (global) and
// inclusive back-invalidation, which is exactly the remote-eviction
// channel run_cross_core_evict exercises.
//
// Synchronisation: the round-robin interleaving steps every live core
// once per global cycle, so both cores' cycle counters advance in
// lockstep and rdcycle spin barriers give a deterministic phase order:
//   t≈0      victim trains its branch (and, for the evict variant, the
//            harness warms the secret)
//   kSpyAt   spy flushes / primes the shared levels
//   kStrike  victim strikes with the out-of-bounds offset
//   kRxAt    spy times its probe reloads
#include <sstream>

#include "attacks/attacks.h"
#include "sim/machine.h"

namespace safespec::attacks {

using isa::AluOp;
using isa::CondOp;
using isa::ProgramBuilder;

namespace {

// Phase barriers (cycles). Training and each spy phase finish in a few
// thousand cycles, so the 30k spacing leaves generous slack.
constexpr std::int64_t kSpyAt = 30'000;    ///< spy flush / prime phase
constexpr std::int64_t kStrikeAt = 60'000; ///< victim's malicious call
constexpr std::int64_t kRxAt = 90'000;     ///< spy receiver phase

// The spy program reuses the victim's register numbers (attack_common.h)
// — different core, different register file.
constexpr RegIndex kRegIter = 10;  ///< storm iteration counter

/// Spin until the core-local cycle counter reaches `cycle`.
void emit_wait_until(ProgramBuilder& b, const std::string& label,
                     std::int64_t cycle) {
  b.label(label);
  b.rdcycle(kRegT1);
  b.movi(kRegT2, cycle);
  b.branch(CondOp::kLt, kRegT1, kRegT2, label);
  b.fence();
}

/// Victim main: train in-bounds, wait for the strike barrier, make the
/// malicious call to the single-core PoC's victim function (only the
/// attacker moved to another core). `rewarm_secret` re-touches the
/// secret architecturally right before striking (the evict variant's spy
/// collaterally evicts it from the shared set, and a victim that
/// recently used its own datum is the same assumption warm_secret
/// models).
isa::Program build_victim(int /*secret*/, bool rewarm_secret) {
  ProgramBuilder b(Layout::kText);
  emit_v1_training(b);

  emit_wait_until(b, "v_strike_wait", kStrikeAt);
  if (rewarm_secret) {
    b.movi(kRegV3, static_cast<std::int64_t>(Layout::kSecretUser));
    b.load(kRegV4, kRegV3, 0);
    b.fence();
  }
  const std::int64_t malicious =
      static_cast<std::int64_t>((Layout::kSecretUser - Layout::kArray1) / 8);
  b.movi(kRegOffset, malicious);
  b.call("victim");
  b.fence();
  b.halt();

  emit_v1_victim(b);
  auto program = b.build();
  program.set_entry(Layout::kText);
  return program;
}

void plant_secret(sim::Simulator& sim, int secret) {
  sim.poke(Layout::kBound, 16);  // array1_size
  for (int i = 0; i < 16; ++i) {
    sim.poke(Layout::kArray1 + 8ull * i, static_cast<std::uint64_t>(i % 7));
  }
  sim.poke(Layout::kSecretUser, static_cast<std::uint64_t>(secret));
  warm_secret(sim, Layout::kSecretUser, /*kernel_page=*/false);
}

AttackOutcome finish(const char* name, const std::string& policy, int secret,
                     sim::Simulator& sim, const sim::SimResult& result) {
  const auto rx = read_receiver(sim, /*core=*/1);
  AttackOutcome out;
  out.name = name;
  out.policy = policy;
  out.secret = secret;
  out.recovered = rx.best_candidate;
  out.leaked = result.stop == cpu::StopReason::kHalted &&
               sim.core(1).halted() && rx.clearly_leaked(secret);
  out.cross_core_evictions = sim.shared_levels().cross_core_evictions();
  out.sharp_alarms = result.sharp_alarms;
  out.sharp_detections = result.sharp_detections;
  std::ostringstream oss;
  oss << rx.describe() << " xevict=" << out.cross_core_evictions
      << " alarms=" << out.sharp_alarms;
  out.detail = oss.str();
  return out;
}

}  // namespace

AttackOutcome run_cross_core_flush_reload(const std::string& policy,
                                          int secret) {
  // Spy (core 1) performs the whole Flush+Reload cycle remotely: flush
  // the probe lines and the bounds word (flush_line is coherence-global,
  // so the victim's private copies vanish too), then time the reloads
  // after the victim's transient transmit.
  ProgramBuilder s(Layout::kText);
  emit_wait_until(s, "s_flush_wait", kSpyAt);
  emit_probe_flush(s, "xc");
  s.movi(kRegV1, static_cast<std::int64_t>(Layout::kBound));
  s.flush(kRegV1, 0);  // widen the victim's window from the other core
  s.fence();
  emit_wait_until(s, "s_rx_wait", kRxAt);
  emit_receiver(s, "xc");
  s.halt();
  auto spy = s.build();
  spy.set_entry(Layout::kText);

  std::vector<isa::Program> programs;
  programs.push_back(build_victim(secret, /*rewarm_secret=*/false));
  programs.push_back(std::move(spy));

  sim::Simulator sim(bimodal_attack_machine(policy), std::move(programs));
  map_attack_regions(sim);
  plant_secret(sim, secret);

  const auto result = sim.run();
  return finish("cross-core-flush-reload", policy, secret, sim, result);
}

AttackOutcome run_cross_core_evict(const std::string& policy, int secret) {
  // The spy flushes nothing the victim owns. It primes the L3 set of the
  // victim's bounds word with committed fills of conflicting lines;
  // inclusive back-invalidation then removes the bound from the victim's
  // private L1/L2, so the bounds check is slow and the window opens.
  const auto config = bimodal_attack_machine(policy);
  const auto& l3 = config.hierarchy.l3;
  const std::int64_t set_stride =
      static_cast<std::int64_t>(l3.num_sets()) * l3.line_bytes;
  const int conflicts = l3.ways + 8;  // overfill the set with margin
  constexpr Addr kEvictBase = 0x8000000;  // clear of every Layout region
  static_assert(kEvictBase % (2048 * 64) == 0,
                "eviction lines must land in kBound's L3 set (set 0)");

  ProgramBuilder s(Layout::kText);
  emit_wait_until(s, "e_prime_wait", kSpyAt);
  emit_probe_flush(s, "xe");  // clear training residue from the shared levels
  s.movi(kRegV1, static_cast<std::int64_t>(kEvictBase));
  s.movi(kRegV2, 0);
  s.label("prime");
  s.load(kRegV3, kRegV1, 0);
  s.alui(AluOp::kAdd, kRegV1, kRegV1, set_stride);
  s.alui(AluOp::kAdd, kRegV2, kRegV2, 1);
  s.movi(kRegV4, conflicts);
  s.branch(CondOp::kLt, kRegV2, kRegV4, "prime");
  s.fence();
  emit_wait_until(s, "e_rx_wait", kRxAt);
  emit_receiver(s, "xe");
  s.halt();
  auto spy = s.build();
  spy.set_entry(Layout::kText);

  std::vector<isa::Program> programs;
  // The priming also evicts the warmed secret (every Layout constant is
  // 1MiB-aligned, so they all sit in L3 set 0); the victim re-warms it
  // architecturally at the strike barrier.
  programs.push_back(build_victim(secret, /*rewarm_secret=*/true));
  programs.push_back(std::move(spy));

  sim::Simulator sim(bimodal_attack_machine(policy), std::move(programs));
  map_attack_regions(sim);
  for (int k = 0; k < conflicts; ++k) {
    sim.map_region(kEvictBase + static_cast<Addr>(k) *
                                    static_cast<Addr>(set_stride),
                   static_cast<std::uint64_t>(l3.line_bytes));
  }
  plant_secret(sim, secret);

  const auto result = sim.run();
  return finish("cross-core-evict", policy, secret, sim, result);
}

AttackOutcome run_cross_core_prime_detect(const std::string& policy) {
  // Shrink the shared levels so a short sweep fills every set: the spy
  // then has to face sets that are *completely* victim-owned, which is
  // the situation SHARP's forced-eviction alarm exists for. The detector
  // threshold scales down with the hierarchy (the exemplar's 2,000
  // alarms/epoch matches a full-size cache being swept set by set).
  auto config = bimodal_attack_machine(policy);
  config.hierarchy.l2.size_bytes = 32 * 1024;  // 128 sets x 4 ways
  config.hierarchy.l3.size_bytes = 64 * 1024;  // 64 sets x 16 ways
  config.sharp_alarm_threshold = 50;

  const std::int64_t sweep_bytes = 64 * 1024;  // one full L3 of lines
  const std::int64_t lines = sweep_bytes / config.hierarchy.l3.line_bytes;
  constexpr Addr kVictimSweep = 0x9000000;
  constexpr Addr kSpySweep = 0x8000000;

  const auto emit_sweep = [&](ProgramBuilder& b, const std::string& tag,
                              Addr base) {
    b.movi(kRegV1, static_cast<std::int64_t>(base));
    b.movi(kRegV2, 0);
    b.label(tag);
    b.load(kRegV3, kRegV1, 0);
    b.alui(AluOp::kAdd, kRegV1, kRegV1, 64);
    b.alui(AluOp::kAdd, kRegV2, kRegV2, 1);
    b.movi(kRegV4, lines);
    b.branch(CondOp::kLt, kRegV2, kRegV4, tag);
    b.fence();
  };

  ProgramBuilder v(Layout::kText);
  emit_sweep(v, "v_sweep", kVictimSweep);
  v.halt();
  auto victim = v.build();
  victim.set_entry(Layout::kText);

  ProgramBuilder s(Layout::kText);
  emit_wait_until(s, "p_spy_wait", kSpyAt);
  emit_sweep(s, "p_sweep", kSpySweep);
  s.halt();
  auto spy = s.build();
  spy.set_entry(Layout::kText);

  std::vector<isa::Program> programs;
  programs.push_back(std::move(victim));
  programs.push_back(std::move(spy));
  sim::Simulator sim(config, std::move(programs));
  map_attack_regions(sim);
  sim.map_region(kVictimSweep, static_cast<std::uint64_t>(sweep_bytes));
  sim.map_region(kSpySweep, static_cast<std::uint64_t>(sweep_bytes));

  const auto result = sim.run();
  AttackOutcome out;
  out.name = "cross-core-prime-detect";
  out.policy = policy;
  out.leaked = false;  // no secret: the signal here is the telemetry
  out.cross_core_evictions = sim.shared_levels().cross_core_evictions();
  out.sharp_alarms = result.sharp_alarms;
  out.sharp_detections = result.sharp_detections;
  std::ostringstream oss;
  oss << "xevict=" << out.cross_core_evictions
      << " alarms=" << out.sharp_alarms
      << " detections=" << out.sharp_detections;
  out.detail = oss.str();
  return out;
}

ShadowContentionOutcome run_cross_core_shadow_contention(
    const std::string& policy) {
  // Core 0 runs a speculation storm: a bounds branch mistrained 7-of-8,
  // whose wrong path issues a chain of 8 independent probe-line loads.
  // Core 1 halts immediately. Shadow structures are per-core, so the
  // storm's speculative fills must never appear in the idle core's
  // shadow d-cache.
  ProgramBuilder b(Layout::kText);
  b.movi(kRegIter, 0);
  b.label("storm");
  b.alui(AluOp::kAnd, kRegOffset, kRegIter, 0x7);
  b.movi(kRegV1, 7);
  b.branch(CondOp::kLt, kRegOffset, kRegV1, "inb");
  b.movi(kRegOffset, 0x100000);  // out of bounds: wrong path this time
  b.label("inb");
  b.movi(kRegBoundP, static_cast<std::int64_t>(Layout::kBound));
  b.flush(kRegBoundP, 0);  // keep the window open every iteration
  b.fence();
  b.call("gadget");
  b.alui(AluOp::kAdd, kRegIter, kRegIter, 1);
  b.movi(kRegV1, 64);
  b.branch(CondOp::kLt, kRegIter, kRegV1, "storm");
  b.halt();

  b.label("gadget");
  b.movi(kRegBoundP, static_cast<std::int64_t>(Layout::kBound));
  b.load(kRegV1, kRegBoundP, 0);
  b.branch(CondOp::kGeu, kRegOffset, kRegV1, "g_skip");
  // 8 independent loads from lines that vary per iteration (512 bytes =
  // 8 lines per step, wrapped into the 64KiB probe region).
  b.alui(AluOp::kShl, kRegV2, kRegIter, 9);
  b.alui(AluOp::kAnd, kRegV2, kRegV2, 0xFFFF);
  b.movi(kRegV3, static_cast<std::int64_t>(Layout::kProbe));
  b.alu(AluOp::kAdd, kRegV2, kRegV2, kRegV3);
  for (int line = 0; line < 8; ++line) {
    b.load(kRegV4, kRegV2, 64 * line);
  }
  b.label("g_skip");
  b.ret();

  auto storm = b.build();
  storm.set_entry(Layout::kText);

  ProgramBuilder idle_b(Layout::kText);
  idle_b.halt();
  auto idle = idle_b.build();
  idle.set_entry(Layout::kText);

  // The idle core is not shadow-silent — its first fetch page-walks
  // through the d-side, and those walk lines are shadowed like any other
  // speculative fill. Privacy therefore means its shadow *lifecycle* is
  // unchanged by the neighbour, not that it is empty: run the pair once
  // with the storm and once with both cores idle, and compare.
  struct IdleLifecycle {
    std::uint64_t inserts, hits, committed, squashed;
    bool operator==(const IdleLifecycle& o) const {
      return inserts == o.inserts && hits == o.hits &&
             committed == o.committed && squashed == o.squashed;
    }
  };
  const auto idle_lifecycle = [](sim::Simulator& sim) {
    const auto& st = sim.core(1).shadow_dcache().stats();
    return IdleLifecycle{st.inserts.value(), st.hits.value(),
                         st.committed.value(), st.squashed.value()};
  };

  std::vector<isa::Program> storm_pair;
  storm_pair.push_back(std::move(storm));
  storm_pair.push_back(idle);
  sim::Simulator sim(bimodal_attack_machine(policy), std::move(storm_pair));
  map_attack_regions(sim);
  sim.poke(Layout::kBound, 16);
  sim.run();

  std::vector<isa::Program> control_pair;
  control_pair.push_back(idle);
  control_pair.push_back(std::move(idle));
  sim::Simulator control(bimodal_attack_machine(policy),
                         std::move(control_pair));
  map_attack_regions(control);
  control.poke(Layout::kBound, 16);
  control.run();

  const auto& storm_stats = sim.core(0).shadow_dcache().stats();
  const auto with_storm = idle_lifecycle(sim);
  const auto solo = idle_lifecycle(control);
  ShadowContentionOutcome out;
  out.policy = policy;
  out.storm_shadow_fills = storm_stats.inserts.value();
  out.storm_occupancy_p9999 = storm_stats.occupancy.percentile(0.9999);
  out.idle_shadow_fills = with_storm.inserts;
  out.idle_shadow_fills_solo = solo.inserts;
  out.shadows_private = with_storm == solo;
  std::ostringstream oss;
  oss << "storm_fills=" << out.storm_shadow_fills
      << " storm_p9999=" << out.storm_occupancy_p9999
      << " idle_fills=" << out.idle_shadow_fills << "/"
      << out.idle_shadow_fills_solo
      << " xevict=" << sim.shared_levels().cross_core_evictions();
  out.detail = oss.str();
  return out;
}

std::vector<AttackOutcome> run_cross_core_attacks(const std::string& policy) {
  std::vector<AttackOutcome> out;
  out.push_back(run_cross_core_flush_reload(policy, 0xAD));
  out.push_back(run_cross_core_evict(policy, 0x5C));
  out.push_back(run_cross_core_prime_detect(policy));
  return out;
}

}  // namespace safespec::attacks
