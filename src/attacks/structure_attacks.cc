// Spectre-style attacks on structures other than the d-cache (Table IV):
// the paper's new I-cache variant (Fig 5) plus iTLB and dTLB channels.
//
// All three use a v1-style mistrained bounds check to open the window.
// Inside the window a data-dependent control transfer (I-side) or a
// page-granular load (D-side) encodes the secret in which line/page gets
// touched. The receiver is a residency oracle over the relevant primary
// structure (see attack_common.h for the receiver-model discussion).
#include <sstream>

#include "attacks/attacks.h"
#include "sim/machine.h"

namespace safespec::attacks {

using isa::AluOp;
using isa::CondOp;
using isa::ProgramBuilder;

namespace {

constexpr Addr kFnPages = 0x7000000;  ///< iTLB variant: one target per page

/// Emits the common prologue: train the victim's bounds check with
/// in-bounds offsets (value 0 everywhere, so candidate 0 is the only
/// polluted one), pre-warm the secret's line so the inner data-dependent
/// step resolves well before the flushed bounds check, then strike.
void emit_train_and_strike(ProgramBuilder& b) {
  emit_v1_training(b);

  // Pre-warm the secret line: the inner (data-dependent) transfer must
  // resolve before the outer bounds check does.
  b.movi(2, static_cast<std::int64_t>(Layout::kSecretUser));
  b.load(3, 2, 0);
  b.fence();

  b.movi(2, static_cast<std::int64_t>(Layout::kBound));
  b.flush(2, 0);
  b.fence();
  const std::int64_t malicious =
      static_cast<std::int64_t>((Layout::kSecretUser - Layout::kArray1) / 8);
  b.movi(1, malicious);
  b.call("victim");
  b.fence();
  b.halt();
}

/// Emits the victim for the I-side variants: bounds check, then an
/// indirect jump to `base + value * stride` (the Fig 5 "256 if
/// structures" collapsed into a computed branch fan).
void emit_ijump_victim(ProgramBuilder& b, Addr fn_base, int fn_stride) {
  b.label("victim");
  b.movi(3, static_cast<std::int64_t>(Layout::kBound));
  b.load(3, 3, 0);
  b.branch(CondOp::kGeu, 1, 3, "skip");
  b.alui(AluOp::kMul, 4, 1, 8);
  b.movi(5, static_cast<std::int64_t>(Layout::kArray1));
  b.alu(AluOp::kAdd, 4, 4, 5);
  b.load(4, 4, 0);  // v = array1[offset]
  b.alui(AluOp::kMul, 4, 4, fn_stride);
  b.movi(5, static_cast<std::int64_t>(fn_base));
  b.alu(AluOp::kAdd, 4, 4, 5);
  b.jump_reg(4);  // speculative, data-dependent fetch target
  b.label("fn_done");
  b.label("skip");
  b.ret();
}

/// Places the 256 one-instruction landing stubs (each jumps straight
/// back) at `base + c*stride`.
void place_stubs(ProgramBuilder& b, Addr base, int stride) {
  for (int c = 0; c < Layout::kCandidates; ++c) {
    b.at(base + static_cast<Addr>(c) * static_cast<Addr>(stride));
    b.jump("fn_done");
  }
}

void setup_victim_memory(sim::Simulator& sim, int secret) {
  sim.poke(Layout::kBound, 16);
  for (int i = 0; i < 16; ++i) sim.poke(Layout::kArray1 + 8ull * i, 0);
  sim.poke(Layout::kSecretUser, static_cast<std::uint64_t>(secret));
}

AttackOutcome finish(const std::string& name, const std::string& policy, int secret,
                     const std::vector<int>& resident,
                     cpu::StopReason stop) {
  AttackOutcome out;
  out.name = name;
  out.policy = policy;
  out.secret = secret;
  // Candidate 0 is architecturally polluted by training; ignore it.
  int hot = -1;
  int hot_count = 0;
  for (int c : resident) {
    if (c == 0) continue;
    hot = c;
    ++hot_count;
  }
  out.recovered = hot_count == 1 ? hot : -1;
  out.leaked = stop == cpu::StopReason::kHalted && out.recovered == secret;
  std::ostringstream oss;
  oss << "resident(non-zero)=" << hot_count;
  if (hot_count >= 1) oss << " first=" << hot;
  out.detail = oss.str();
  return out;
}

}  // namespace

AttackOutcome run_icache_attack(const std::string& policy, int secret) {
  ProgramBuilder b(Layout::kText);
  emit_train_and_strike(b);
  emit_ijump_victim(b, Layout::kFnArea, Layout::kFnStride);
  place_stubs(b, Layout::kFnArea, Layout::kFnStride);

  auto program = b.build();
  program.set_entry(Layout::kText);
  sim::Simulator sim(bimodal_attack_machine(policy), std::move(program));
  map_attack_regions(sim);
  setup_victim_memory(sim, secret);

  // The receiver's reference state: candidate lines must start cold.
  // (They do: the fn area is only ever touched by the attack itself and
  // by training's candidate-0 stub.)
  const auto result = sim.run();

  std::vector<int> resident;
  for (int c = 0; c < Layout::kCandidates; ++c) {
    const Addr line = line_of(Layout::kFnArea +
                              static_cast<Addr>(c) * Layout::kFnStride);
    if (sim.core().hierarchy().resident_l1(line, memory::Side::kInstr) ||
        sim.core().hierarchy().resident_l2(line) ||
        sim.core().hierarchy().resident_l3(line)) {
      resident.push_back(c);
    }
  }
  return finish("icache", policy, secret, resident, result.stop);
}

AttackOutcome run_itlb_attack(const std::string& policy, int secret) {
  ProgramBuilder b(Layout::kText);
  emit_train_and_strike(b);
  emit_ijump_victim(b, kFnPages, static_cast<int>(kPageSize));
  place_stubs(b, kFnPages, static_cast<int>(kPageSize));

  auto program = b.build();
  program.set_entry(Layout::kText);
  sim::Simulator sim(bimodal_attack_machine(policy), std::move(program));
  map_attack_regions(sim);
  setup_victim_memory(sim, secret);

  const auto result = sim.run();

  std::vector<int> resident;
  for (int c = 0; c < Layout::kCandidates; ++c) {
    const Addr vpage = page_of(kFnPages + static_cast<Addr>(c) * kPageSize);
    if (sim.core().itlb().probe(vpage)) resident.push_back(c);
  }
  return finish("itlb", policy, secret, resident, result.stop);
}

AttackOutcome run_dtlb_attack(const std::string& policy, int secret) {
  ProgramBuilder b(Layout::kText);
  emit_train_and_strike(b);

  // Victim: bounds check, then a load whose *page* encodes the value.
  b.label("victim");
  b.movi(3, static_cast<std::int64_t>(Layout::kBound));
  b.load(3, 3, 0);
  b.branch(CondOp::kGeu, 1, 3, "skip");
  b.alui(AluOp::kMul, 4, 1, 8);
  b.movi(5, static_cast<std::int64_t>(Layout::kArray1));
  b.alu(AluOp::kAdd, 4, 4, 5);
  b.load(4, 4, 0);  // v = array1[offset]
  b.alui(AluOp::kMul, 4, 4, static_cast<std::int64_t>(kPageSize));
  b.movi(5, static_cast<std::int64_t>(Layout::kTlbProbe));
  b.alu(AluOp::kAdd, 4, 4, 5);
  b.load(6, 4, 0);  // speculative page-granular touch
  b.label("fn_done");
  b.label("skip");
  b.ret();

  auto program = b.build();
  program.set_entry(Layout::kText);
  sim::Simulator sim(bimodal_attack_machine(policy), std::move(program));
  map_attack_regions(sim);
  sim.map_region(Layout::kTlbProbe,
                 static_cast<std::uint64_t>(Layout::kCandidates) * kPageSize);
  setup_victim_memory(sim, secret);

  const auto result = sim.run();

  std::vector<int> resident;
  for (int c = 0; c < Layout::kCandidates; ++c) {
    const Addr vpage =
        page_of(Layout::kTlbProbe + static_cast<Addr>(c) * kPageSize);
    if (sim.core().dtlb().probe(vpage)) resident.push_back(c);
  }
  return finish("dtlb", policy, secret, resident, result.stop);
}

std::vector<AttackOutcome> run_all_attacks(const std::string& policy) {
  std::vector<AttackOutcome> out;
  out.push_back(run_spectre_v1(policy, 0x5A));
  out.push_back(run_spectre_v2(policy, 0xC3));
  out.push_back(run_meltdown(policy, 0x7E));
  out.push_back(run_icache_attack(policy, 0x42));
  out.push_back(run_itlb_attack(policy, 0x42));
  out.push_back(run_dtlb_attack(policy, 0x42));
  return out;
}

}  // namespace safespec::attacks
