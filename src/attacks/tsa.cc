// Transient Speculation Attack (§V, Fig 10).
//
// SafeSpec closes the speculative->committed channel, but while an
// eventually-committed instruction is still speculative it shares the
// shadow structures with wrong-path instructions. If a shadow structure
// can fill up, the full-handling policy becomes the channel:
//   * kDrop:  the Spy's shadow entry is discarded; after commit the Spy's
//             line is missing from the caches — detectable by timing.
//   * kStall: the Spy's load is delayed until the Trojan squashes —
//             detectable in end-to-end execution time.
//
// Construction (all inside ONE speculation window, which is what makes
// TSAs "substantially more difficult" than Spectre — §V):
//   program order:  [spy delay chain] -> spy load A ->
//                   [branch delay chain] -> mistrained branch (actually
//                   taken) -> TROJAN (wrong path): read "secret", issue K
//                   filler loads into cold lines iff secret bit == 1 ->
//                   reconverge: timed reload of A.
//   issue order:    Trojan fillers (~cycle 15) -> spy load (~cycle 250,
//                   held back by a dependent div chain) -> branch
//                   resolution (~cycle 520, longer div chain) squashes
//                   the Trojan.
// With an undersized shadow d-cache the Trojan's fills leave no room for
// the Spy at cycle ~250. Under the worst-case ("Secure") sizing bounded
// by the LDQ the Trojan cannot create contention at all (§V), closing
// the channel.
#include <sstream>

#include "attacks/attacks.h"
#include "sim/machine.h"

namespace safespec::attacks {

using isa::AluOp;
using isa::CondOp;
using isa::ProgramBuilder;

namespace {

constexpr Addr kA = 0x8000000;        ///< the Spy's marker line
constexpr Addr kTSecret = 0x8100000;  ///< Trojan's "unauthorized" datum
constexpr Addr kWarm = 0x8200000;     ///< pre-warmed filler region (bit 0)
constexpr Addr kCold = 0x8300000;     ///< cold filler region (bit 1)
constexpr int kFillers = 12;
constexpr int kSpyDelayDivs = 12;     ///< ~240 cycles
constexpr int kBranchDelayDivs = 26;  ///< ~520 cycles

isa::Program build_tsa_program() {
  ProgramBuilder b(Layout::kText);

  // Bases.
  b.movi(1, static_cast<std::int64_t>(kA));
  b.movi(2, static_cast<std::int64_t>(kTSecret));
  b.movi(3, static_cast<std::int64_t>(kWarm));
  b.movi(4, static_cast<std::int64_t>(kCold - kWarm));

  // Warm phase: filler region for bit==0 and the Trojan's secret line
  // must be L1-resident so the Trojan never waits on memory. Each load is
  // fenced so its shadow entry is promoted before the next one issues —
  // otherwise the warm-up itself would overflow an undersized shadow
  // d-cache and leave the "warm" region partially cold.
  for (int i = 0; i < kFillers; ++i) {
    b.load(5, 3, i * 64);
    b.fence();
  }
  b.load(5, 2, 0);
  b.fence();
  // Warm A's *translation* (a neighbouring line on the same page — A's
  // own line stays cold): the spy's observable must be the shadow-entry
  // fate, not page-walk noise.
  b.load(5, 1, 1024);
  b.fence();
  // Warm the reconvergence block's i-cache line (it shares a line with
  // this one-instruction helper). Otherwise the post-squash refetch of
  // the receiver costs one memory access that exactly shadows the spy's
  // stall-deferred load, masking the timing channel.
  b.call("rec_warm");
  b.fence();

  // Spy delay chain: r6 becomes available only after ~20*kSpyDelayDivs
  // cycles, holding the spy load's issue inside the window.
  b.movi(6, 1);
  for (int i = 0; i < kSpyDelayDivs; ++i) b.alui(AluOp::kDiv, 6, 6, 1);
  b.alui(AluOp::kAnd, 7, 6, 0);
  b.alu(AluOp::kAdd, 7, 7, 1);  // r7 = A (data-dependent on the chain)
  b.load(8, 7, 0);              // SPY LOAD — will commit

  // Branch delay chain: keeps the window open past the spy load.
  b.movi(9, 1);
  for (int i = 0; i < kBranchDelayDivs; ++i) b.alui(AluOp::kDiv, 9, 9, 1);
  b.label("tsa_branch");
  b.branch(CondOp::kGeu, 9, kZeroReg, "reconverge");  // always taken

  // ---- Trojan: wrong path only (the branch above is actually taken,
  // but mistrained to predict not-taken).
  b.load(10, 2, 0);                  // v = secret bit (L1 hit, fast)
  b.alu(AluOp::kMul, 11, 10, 4);     // 0 or (kCold - kWarm)
  b.alu(AluOp::kAdd, 11, 11, 3);     // filler base: warm or cold region
  for (int i = 0; i < kFillers; ++i) b.load(12, 11, i * 64);

  // ---- Reconvergence: committed-path receiver. Placed at a fresh
  // 64-byte-aligned line together with `rec_warm` so the warm phase can
  // make the refetch after the squash an L1I hit (see above).
  b.at((b.here() + 63) & ~Addr{63});
  b.label("rec_warm");
  b.ret();
  b.label("reconverge");
  b.fence();
  b.rdcycle(13);
  b.load(14, 1, 0);  // timed reload of A
  b.fence();
  b.rdcycle(15);
  b.alu(AluOp::kSub, 16, 15, 13);   // probe latency
  b.rdcycle(17);                    // ~total execution time
  b.halt();

  auto program = b.build();
  program.set_entry(Layout::kText);
  return program;
}

struct TsaRun {
  Cycle probe_latency = 0;
  Cycle total_cycles = 0;
  bool ok = false;
};

TsaRun run_once(const TsaConfig& config, int secret_bit) {
  auto program = build_tsa_program();
  // The branch pc is needed for mistraining; rebuild to find the label.
  ProgramBuilder finder(Layout::kText);
  // (Label addresses are deterministic; rebuild the program and query.)
  auto core_config = bimodal_attack_machine(config.policy);
  core_config.shadow_dcache.entries = config.shadow_entries;
  core_config.shadow_dcache.full_policy = config.full_policy;

  sim::Simulator sim(core_config, std::move(program));
  sim.map_text();
  sim.map_region(kA, kPageSize);
  sim.map_region(kTSecret, kPageSize);
  sim.map_region(kWarm, kPageSize);
  sim.map_region(kCold, kPageSize);
  sim.poke(kTSecret, static_cast<std::uint64_t>(secret_bit));

  // Locate the branch: it is the only conditional branch in the program.
  Addr branch_pc = 0;
  for (const Addr pc : sim.program().pcs()) {
    if (sim.program().at(pc)->op == isa::OpClass::kBranch) {
      branch_pc = pc;
      break;
    }
  }
  sim.core().predictor().mistrain_direction(branch_pc, /*taken=*/false, 64);

  const auto result = sim.run();
  TsaRun out;
  out.ok = result.stop == cpu::StopReason::kHalted;
  out.probe_latency = sim.core().reg(16);
  out.total_cycles = sim.core().reg(17);
  return out;
}

}  // namespace

TsaOutcome run_tsa_attack(const TsaConfig& config) {
  const TsaRun bit0 = run_once(config, 0);
  const TsaRun bit1 = run_once(config, 1);

  TsaOutcome out;
  out.secret_bit = 1;
  out.probe_latency_bit0 = bit0.probe_latency;
  out.probe_latency_bit1 = bit1.probe_latency;

  if (!bit0.ok || !bit1.ok) {
    out.detail = "run failed";
    return out;
  }

  // Receiver decision rule, by channel flavour:
  //  * kDrop:  the spy's reload of A is slow iff its shadow entry was
  //    dropped. Threshold halfway between an L1 hit and a memory access.
  //  * kStall: the spy observes its own execution being delayed; compare
  //    total cycles against the bit-0 reference.
  if (config.full_policy == shadow::FullPolicy::kDrop) {
    out.recovered_bit = bit1.probe_latency > 100 ? 1 : 0;
    out.leaked = out.recovered_bit == 1 &&
                 bit0.probe_latency <= 100;  // bit 0 must read as 0
  } else {
    const auto delta = bit1.total_cycles > bit0.total_cycles
                           ? bit1.total_cycles - bit0.total_cycles
                           : 0;
    out.recovered_bit = delta > 100 ? 1 : 0;
    out.leaked = out.recovered_bit == 1;
  }
  std::ostringstream oss;
  oss << "probe(bit0)=" << bit0.probe_latency
      << " probe(bit1)=" << bit1.probe_latency
      << " total(bit0)=" << bit0.total_cycles
      << " total(bit1)=" << bit1.total_cycles;
  out.detail = oss.str();
  return out;
}

}  // namespace safespec::attacks
