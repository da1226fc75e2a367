// Meltdown: user-mode read of kernel memory through the deferred
// permission check (P1), recovered via Flush+Reload after the fault.

#include "attacks/attacks.h"
#include "sim/machine.h"

namespace safespec::attacks {

using isa::AluOp;
using isa::ProgramBuilder;

AttackOutcome run_meltdown(const std::string& policy, int secret) {
  return run_meltdown_with_delay(policy, secret, -1);
}

AttackOutcome run_meltdown_with_delay(const std::string& policy, int secret,
                                      int commit_delay) {
  ProgramBuilder b(Layout::kText);

  emit_probe_flush(b, "md");
  // The illegal access. No branch anywhere: this is why WFB cannot stop
  // Meltdown (Table III) — by the time the fault is raised at commit the
  // dependent probe line has no unresolved older branch.
  b.movi(1, static_cast<std::int64_t>(Layout::kSecretKernel));
  b.load(2, 1, 0);                                // faults at commit
  // Minimal dependent chain: the transmit load must issue inside the
  // completion-to-retire window of the faulting load.
  b.alui(AluOp::kShl, 3, 2, 8);                   // v * kProbeStride
  b.load(5, 3, static_cast<std::int64_t>(Layout::kProbe));  // transmit
  b.halt();  // never commits; the fault redirects to the handler

  // Fault handler doubles as the receiver (the attack "recovers from the
  // segmentation fault", §II-B4).
  b.label("handler");
  emit_receiver(b, "md");
  b.halt();

  auto program = b.build();
  program.set_entry(Layout::kText);
  program.set_fault_handler(b.label_addr("handler"));

  auto config = attack_machine(policy);
  if (commit_delay >= 0) config.commit_delay = commit_delay;
  sim::Simulator sim(config, std::move(program));
  map_attack_regions(sim);
  sim.map_region(Layout::kSecretKernel, kPageSize, memory::PagePerm::kKernel);
  sim.poke(Layout::kSecretKernel, static_cast<std::uint64_t>(secret));
  // Kernel data the kernel itself recently touched: cached, translation
  // present — the conditions under which Meltdown reads reliably.
  warm_secret(sim, Layout::kSecretKernel, /*kernel_page=*/true);

  const auto result = sim.run();
  const auto rx = read_receiver(sim);

  AttackOutcome out;
  out.name = "meltdown";
  out.policy = policy;
  out.secret = secret;
  out.recovered = rx.best_candidate;
  out.leaked = result.stop == cpu::StopReason::kHalted &&
               rx.clearly_leaked(secret);
  out.detail = rx.describe() + " faults=" + std::to_string(result.faults);
  return out;
}

}  // namespace safespec::attacks
