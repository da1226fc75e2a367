// Proof-of-concept speculation attacks (§II, §IV-A, §V of the paper),
// each runnable under any protection policy. Every PoC plants a secret,
// runs the full attack end-to-end in the simulator, and reports what the
// attacker recovered — the Table III / Table IV benches simply tabulate
// `leaked` across policies.
#pragma once

#include "attacks/attack_common.h"
#include "safespec/shadow_structures.h"

namespace safespec::attacks {

/// Spectre variant 1: bounds-check bypass (Fig. in §II-B2). The victim's
/// branch is trained in-program with in-bounds offsets; the attack call
/// flushes array1_size to widen the window and supplies an out-of-bounds
/// offset reaching the secret. Flush+Reload receiver.
AttackOutcome run_spectre_v1(const std::string& policy, int secret);

/// Spectre variant 2: indirect branch target poisoning (§II-B3). The
/// attacker installs the gadget address in the BTB (threat model P3),
/// flushes the victim's function pointer, and triggers one indirect call.
AttackOutcome run_spectre_v2(const std::string& policy, int secret);

/// Meltdown (§II-B4): a user-mode load of a kernel address executes
/// speculatively (P1: the permission check bites only at commit); the
/// dependent probe load encodes the value; the fault handler runs the
/// receiver.
AttackOutcome run_meltdown(const std::string& policy, int secret);

/// Meltdown with an explicit writeback-to-retire latency. The attack is a
/// race: the dependent transmit load must issue inside this window, so
/// sweeping it shows the structural condition for Meltdown on the
/// *baseline* (ablation 3 in bench/ablation_design).
AttackOutcome run_meltdown_with_delay(const std::string& policy, int secret,
                                      int commit_delay);

/// The paper's new I-cache variant (Fig 5, simplified to the micro-ISA):
/// a speculative data-dependent indirect jump fetches one of 256 target
/// lines; the receiver is an L1I residency oracle.
AttackOutcome run_icache_attack(const std::string& policy, int secret);

/// iTLB variant: the speculative jump targets one of 256 *pages*; the
/// receiver is an iTLB residency oracle.
AttackOutcome run_itlb_attack(const std::string& policy, int secret);

/// dTLB variant: the speculative gadget loads from one of 256 pages; the
/// receiver is a dTLB residency oracle.
AttackOutcome run_dtlb_attack(const std::string& policy, int secret);

/// Transient Speculation Attack (Fig 10): a wrong-path Trojan creates
/// contention in the shadow d-cache that a committed-path Spy observes
/// *within* the speculation window. Parameterised by the shadow sizing
/// and full policy so the bench can show the channel opening when the
/// structure is undersized and closing under worst-case sizing (§V).
struct TsaConfig {
  std::string policy = "WFC";  ///< protection-policy name
  int shadow_entries = 8;  ///< undersized by default; 72 = secure sizing
  shadow::FullPolicy full_policy = shadow::FullPolicy::kDrop;
};

struct TsaOutcome {
  int secret_bit = 0;
  int recovered_bit = -1;
  bool leaked = false;
  Cycle probe_latency_bit0 = 0;  ///< timed reload when Trojan idle
  Cycle probe_latency_bit1 = 0;  ///< timed reload when Trojan fills
  std::string detail;
};

TsaOutcome run_tsa_attack(const TsaConfig& config);

// ---- cross-core variants (two cores sharing the L2/L3) ---------------------
//
// The multi-core machine shares the L2/L3 (tag-only, identity-mapped, so
// equal addresses on two cores alias the same shared line — the classic
// shared-library flush+reload setting) while L1s, TLBs and SafeSpec
// shadow structures stay per-core. The PoCs below split the single-core
// Spectre harness across cores: the victim speculates on core 0, the spy
// observes from core 1, synchronised with rdcycle spin barriers (the
// round-robin schedule keeps both cores' cycle counters in lockstep).

/// Cross-core Flush+Reload: the spy (core 1) flushes the shared probe
/// lines, the victim (core 0) is mistrained in-program and strikes with
/// an out-of-bounds offset, and the spy times its reloads. On the
/// baseline the victim's transient probe touch fills the shared L2/L3,
/// so the spy sees an L2-vs-memory gap; under WFC/WFB the fill stays in
/// the victim's private shadow and is annulled on squash.
AttackOutcome run_cross_core_flush_reload(const std::string& policy,
                                          int secret);

/// Cross-core eviction mistraining: the spy never flushes anything the
/// victim owns — instead it *primes* the L3 set of the victim's bounds
/// word with conflicting committed fills. Inclusive back-invalidation
/// then removes the bound from the victim's private L1/L2 too, so the
/// victim's own bounds check is slow and the speculation window opens
/// remotely. Transmission and reception as in the flush+reload variant.
/// The outcome's detail records the shared-level cross-owner eviction
/// count, which is non-zero under every policy (the priming itself is
/// architectural).
AttackOutcome run_cross_core_evict(const std::string& policy, int secret);

/// Cross-core prime sweep against the SHARP detector: the victim
/// (core 0) first fills every set of a deliberately shrunken shared
/// L2/L3 with its own lines, then the spy (core 1) sweeps an aliased
/// region trying to take the whole hierarchy over — the textbook
/// Prime+Probe preparation. There is no secret; the outcome reports the
/// telemetry: under "SHARP" every spy fill into a fully victim-owned
/// set is a forced cross-owner eviction (one alarm per set, enough to
/// cross the scaled-down detector threshold), under "detect-only" every
/// cross-owner eviction alarms, and under the shadow policies the sweep
/// proceeds silently (alarms = 0) because nothing watches replacement.
AttackOutcome run_cross_core_prime_detect(const std::string& policy);

/// Shadow-structure contention probe: core 0 runs a speculation storm
/// (mistrained branches with wrong-path load chains) while core 1 halts
/// almost immediately (its only shadow activity is the page-table walk
/// of its first fetch). A control run replaces the storm with the same
/// idle program. Shadow structures are per-core, so the idle core's
/// shadow d-cache lifecycle (inserts/hits/committed/squashed) must be
/// identical whether its neighbour storms or idles — `shadows_private`
/// asserts exactly that, while the storm core's own occupancy shows the
/// speculation was real.
struct ShadowContentionOutcome {
  std::string policy;
  std::uint64_t storm_shadow_fills = 0;   ///< storm core shadow d-cache fills
  std::uint64_t storm_occupancy_p9999 = 0;
  std::uint64_t idle_shadow_fills = 0;       ///< idle core, storm running
  std::uint64_t idle_shadow_fills_solo = 0;  ///< idle core, control run
  bool shadows_private = false;  ///< idle lifecycle identical in both runs
  std::string detail;
};

ShadowContentionOutcome run_cross_core_shadow_contention(
    const std::string& policy);

/// Runs the cross-core PoCs under `policy`: flush+reload and eviction
/// mistraining (secrets fixed), then the prime/detect sweep.
std::vector<AttackOutcome> run_cross_core_attacks(const std::string& policy);

/// Runs every table-III/IV attack under `policy` (secrets fixed by seed).
std::vector<AttackOutcome> run_all_attacks(const std::string& policy);

}  // namespace safespec::attacks
