// Spectre v1 (bounds-check bypass) and v2 (branch target injection).
#include "attacks/attacks.h"
#include "sim/machine.h"

namespace safespec::attacks {

using isa::AluOp;
using isa::CondOp;
using isa::ProgramBuilder;

AttackOutcome run_spectre_v1(const std::string& policy, int secret) {
  // Program layout:
  //   main: train loop (8 in-bounds victim calls)
  //         flush probe lines; flush array1_size; fence
  //         call victim with the malicious offset
  //         receiver loop; halt
  //   victim(offset in r1):
  //         r = load [kBound]
  //         if (offset >= r) goto skip          <- mistrained branch
  //         v = load [kArray1 + offset*8]       <- reads the secret
  //         junk = load [kProbe + v*stride]     <- transmits it
  //   skip: ret
  ProgramBuilder b(Layout::kText);

  // ---- main: training --------------------------------------------------
  emit_v1_training(b);

  // ---- main: widen the window and strike --------------------------------
  emit_probe_flush(b, "v1");
  b.movi(kRegBoundP, static_cast<std::int64_t>(Layout::kBound));
  b.flush(kRegBoundP, 0);  // delay the bounds check (step b of §II-B2)
  b.fence();
  const std::int64_t malicious =
      static_cast<std::int64_t>((Layout::kSecretUser - Layout::kArray1) / 8);
  b.movi(kRegOffset, malicious);
  b.call("victim");
  b.fence();

  // ---- main: receive -----------------------------------------------------
  emit_receiver(b, "v1");
  b.halt();

  // ---- victim ------------------------------------------------------------
  emit_v1_victim(b);

  auto program = b.build();
  program.set_entry(Layout::kText);

  sim::Simulator sim(bimodal_attack_machine(policy), std::move(program));
  map_attack_regions(sim);
  sim.poke(Layout::kBound, 16);  // array1_size
  for (int i = 0; i < 16; ++i) {
    sim.poke(Layout::kArray1 + 8ull * i, static_cast<std::uint64_t>(i % 7));
  }
  sim.poke(Layout::kSecretUser, static_cast<std::uint64_t>(secret));
  warm_secret(sim, Layout::kSecretUser, /*kernel_page=*/false);

  const auto result = sim.run();
  const auto rx = read_receiver(sim);

  AttackOutcome out;
  out.name = "spectre-v1";
  out.policy = policy;
  out.secret = secret;
  out.recovered = rx.best_candidate;
  out.leaked = result.stop == cpu::StopReason::kHalted &&
               rx.clearly_leaked(secret);
  out.detail = rx.describe();
  return out;
}

AttackOutcome run_spectre_v2(const std::string& policy, int secret) {
  // Victim: loads a function pointer (flushed by the attacker, so the
  // indirect branch's target arrives late) and jumps through it. The
  // attacker has poisoned the BTB so speculation runs the gadget.
  ProgramBuilder b(Layout::kText);

  emit_probe_flush(b, "v2");
  b.movi(kRegV1, static_cast<std::int64_t>(Layout::kFptr));
  b.flush(kRegV1, 0);  // delay target resolution
  b.fence();
  // The "attacker-controlled argument" the gadget will use: address of
  // the secret.
  b.movi(kRegOffset, static_cast<std::int64_t>(Layout::kSecretUser));
  b.call("victim");
  b.fence();
  emit_receiver(b, "v2");
  b.halt();

  // Victim function with an indirect jump through memory.
  b.label("victim");
  b.movi(kRegV1, static_cast<std::int64_t>(Layout::kFptr));
  b.load(kRegV2, kRegV1, 0);
  b.label("indirect_site");
  b.jump_reg(kRegV2);  // architectural target: benign (below)

  b.label("benign");
  b.movi(kRegV3, 0);
  b.ret();

  // Gadget: never architecturally reached; runs only under the poisoned
  // prediction. Reads [r1] and touches probe[value].
  b.label("gadget");
  b.load(kRegV2, kRegOffset, 0);
  b.alui(AluOp::kShl, kRegV2, kRegV2, 8);  // v * kProbeStride
  b.load(kRegV4, kRegV2, static_cast<std::int64_t>(Layout::kProbe));
  b.ret();

  auto program = b.build();
  program.set_entry(Layout::kText);
  const Addr indirect_pc = b.label_addr("indirect_site");
  const Addr gadget = b.label_addr("gadget");
  const Addr benign = b.label_addr("benign");

  sim::Simulator sim(bimodal_attack_machine(policy), std::move(program));
  map_attack_regions(sim);
  sim.poke(Layout::kFptr, benign);
  sim.poke(Layout::kSecretUser, static_cast<std::uint64_t>(secret));
  warm_secret(sim, Layout::kSecretUser, /*kernel_page=*/false);

  // Threat-model P3: the attacker's colliding branch installs the gadget
  // as the predicted target of the victim's indirect branch.
  sim.core().predictor().poison_btb(indirect_pc, gadget);

  const auto result = sim.run();
  const auto rx = read_receiver(sim);

  AttackOutcome out;
  out.name = "spectre-v2";
  out.policy = policy;
  out.secret = secret;
  out.recovered = rx.best_candidate;
  out.leaked = result.stop == cpu::StopReason::kHalted &&
               rx.clearly_leaked(secret);
  out.detail = rx.describe();
  return out;
}

}  // namespace safespec::attacks
