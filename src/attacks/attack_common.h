// Shared attack infrastructure: memory layout constants, program
// fragments (flush loops, flush+reload receiver), and outcome records.
//
// Receiver models. Two receivers are used across the PoCs:
//   * In-program Flush+Reload: the attacker times 256 candidate probe
//     loads with rdcycle+fence and stores the latencies; the harness
//     reads them back and picks the hot line. This is the faithful
//     end-to-end receiver and is used for all d-cache attacks.
//   * Residency oracle: for i-cache and TLB channels the harness inspects
//     structure state directly (L1I lines / TLB entries). This models the
//     strongest possible attacker — anything a timing receiver could
//     infer is a function of this state — and matches the paper's
//     security argument, which is about which structures carry a trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "isa/program.h"
#include "safespec/shadow_structures.h"
#include "sim/simulator.h"

namespace safespec::attacks {

/// Canonical attack address map (all offsets page-aligned, disjoint).
struct Layout {
  static constexpr Addr kText = 0x10000;        ///< attacker+victim code
  static constexpr Addr kProbe = 0x1000000;     ///< flush+reload probe array
  static constexpr int kProbeStride = 256;      ///< bytes between candidates
  static constexpr int kCandidates = 256;       ///< byte-value alphabet
  static constexpr Addr kResults = 0x2000000;   ///< receiver latencies
  static constexpr Addr kArray1 = 0x3000000;    ///< victim bounds-checked array
  static constexpr Addr kBound = 0x3100000;     ///< array1_size location
  static constexpr Addr kSecretUser = 0x3200000;   ///< v1/v2 secret (user)
  static constexpr Addr kSecretKernel = 0x4000000; ///< Meltdown secret (kernel)
  static constexpr Addr kFptr = 0x3300000;      ///< v2 function pointer
  static constexpr Addr kTlbProbe = 0x5000000;  ///< 256 pages, TLB channels
  static constexpr Addr kFnArea = 0x6000000;    ///< i-cache channel targets
  static constexpr int kFnStride = 256;         ///< bytes between i-targets
};

/// Registers reserved by the shared fragments (attack bodies use r1-r19).
inline constexpr RegIndex kRegC = 20;        ///< receiver loop counter
inline constexpr RegIndex kRegTmp1 = 21;
inline constexpr RegIndex kRegTmp2 = 22;
inline constexpr RegIndex kRegT1 = 23;
inline constexpr RegIndex kRegT2 = 24;
inline constexpr RegIndex kRegProbeBase = 25;
inline constexpr RegIndex kRegResultBase = 26;

/// Registers of the Spectre-v1 victim and its training loop (attack
/// bodies reuse them for their own values elsewhere).
inline constexpr RegIndex kRegOffset = 1;  ///< victim call argument
inline constexpr RegIndex kRegBoundP = 2;
inline constexpr RegIndex kRegV1 = 3;
inline constexpr RegIndex kRegV2 = 4;
inline constexpr RegIndex kRegV3 = 5;
inline constexpr RegIndex kRegV4 = 6;
inline constexpr RegIndex kRegTrainC = 7;

/// Emits the training loop: 24 calls of "victim" with in-bounds offsets
/// 0..7 in kRegOffset, so the victim's bounds check learns "in bounds".
/// Clobbers kRegTrainC and kRegV4.
void emit_v1_training(isa::ProgramBuilder& b);

/// Emits the Spectre-v1 victim function at label "victim": load
/// array1_size, bounds-check kRegOffset against it (the mistrained
/// branch), read array1[offset] (the secret when out of bounds) and
/// touch probe[value]; then return from label "skip".
void emit_v1_victim(isa::ProgramBuilder& b);

/// Emits a loop flushing every probe-array candidate line, then a fence.
/// Clobbers the shared registers above. `label_prefix` keeps builder
/// labels unique when the fragment is emitted more than once.
void emit_probe_flush(isa::ProgramBuilder& b, const std::string& label_prefix);

/// Emits the Flush+Reload receiver: for each candidate c, time a load of
/// probe[c] and store the latency to results[c]. Ends with a fence.
void emit_receiver(isa::ProgramBuilder& b, const std::string& label_prefix);

/// Maps all the common regions of `Layout` into `sim` (text must already
/// be placed; call after program construction).
void map_attack_regions(sim::Simulator& sim);

/// Warms the line and TLB entry of `addr`, modelling a victim/kernel that
/// recently used the datum. Speculation attacks need the secret's *value*
/// to arrive inside the speculation window; in the published PoCs the
/// secret is cached victim data (only the branch condition / function
/// pointer is flushed).
void warm_secret(sim::Simulator& sim, Addr addr, bool kernel_page);

/// Reads the receiver's latency table and returns the candidate with the
/// minimum latency, together with a confidence margin (second-smallest
/// minus smallest, in cycles).
struct ReceiverReading {
  int best_candidate = -1;
  std::uint64_t best_latency = 0;
  std::uint64_t margin = 0;  ///< separation from the runner-up
  std::vector<std::uint64_t> latencies;

  /// The hot candidate is `secret` and is separated from the runner-up
  /// by more than any plausible timing noise (an L2-vs-memory gap).
  bool clearly_leaked(int secret) const {
    return best_candidate == secret && margin > 50;
  }
  /// "hot=C lat=L margin=M", the receiver part of an outcome's detail.
  std::string describe() const;
};
ReceiverReading read_receiver(const sim::Simulator& sim);
/// Same, but reads the table from core `c`'s private memory — the
/// cross-core PoCs run the receiver on the spy core, so its latencies
/// live in that core's address space.
ReceiverReading read_receiver(const sim::Simulator& sim, int c);

/// Outcome of one attack run.
struct AttackOutcome {
  std::string name;
  std::string policy = "baseline";  ///< protection-policy name
  int secret = -1;        ///< planted value
  int recovered = -1;     ///< attacker's best guess (-1: nothing recovered)
  bool leaked = false;    ///< recovered == secret with clear margin
  /// Shared-level evictions where the victim way belonged to another
  /// core. Zero for the single-core PoCs; the cross-core variants report
  /// the contention their spy activity caused at the shared L2/L3.
  std::uint64_t cross_core_evictions = 0;
  /// SHARP-family telemetry (SimResult::sharp_alarms /
  /// sharp_detections); zero under every other policy.
  std::uint64_t sharp_alarms = 0;
  std::uint64_t sharp_detections = 0;
  std::string detail;
};

/// The machine every PoC runs on: the "skylake" preset core with the
/// named protection policy selected (throws std::out_of_range, listing
/// the registered policies, on an unknown name).
cpu::CoreConfig attack_machine(const std::string& policy);
/// attack_machine with a bimodal direction predictor: its pc-indexed
/// counters make in-program mistraining deterministic, which keeps the
/// PoCs robust. (The threat model grants the attacker full predictor
/// control anyway — §II-C assumes predictor state is effectively
/// programmable.)
cpu::CoreConfig bimodal_attack_machine(const std::string& policy);

}  // namespace safespec::attacks
