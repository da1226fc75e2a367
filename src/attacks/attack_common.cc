#include "attacks/attack_common.h"

#include <algorithm>

#include "isa/instruction.h"
#include "predictor/branch_predictor.h"
#include "sim/machine.h"

namespace safespec::attacks {

using isa::AluOp;
using isa::CondOp;
using isa::ProgramBuilder;

cpu::CoreConfig attack_machine(const std::string& policy) {
  cpu::CoreConfig config = sim::machine_preset("skylake").core;
  config.policy = policy;
  return config;
}

cpu::CoreConfig bimodal_attack_machine(const std::string& policy) {
  cpu::CoreConfig config = attack_machine(policy);
  config.predictor.direction.kind = predictor::DirectionKind::kBimodal;
  return config;
}

std::string ReceiverReading::describe() const {
  return "hot=" + std::to_string(best_candidate) +
         " lat=" + std::to_string(best_latency) +
         " margin=" + std::to_string(margin);
}

void emit_v1_training(ProgramBuilder& b) {
  b.movi(kRegTrainC, 0);
  b.label("train_loop");
  b.alui(AluOp::kAnd, kRegOffset, kRegTrainC, 0x7);  // offsets 0..7, in bounds
  b.call("victim");
  b.alui(AluOp::kAdd, kRegTrainC, kRegTrainC, 1);
  b.movi(kRegV4, 24);
  b.branch(CondOp::kLt, kRegTrainC, kRegV4, "train_loop");
}

void emit_v1_victim(ProgramBuilder& b) {
  b.label("victim");
  b.movi(kRegBoundP, static_cast<std::int64_t>(Layout::kBound));
  b.load(kRegV1, kRegBoundP, 0);                     // r3 = array1_size
  b.branch(CondOp::kGeu, kRegOffset, kRegV1, "skip");
  b.alui(AluOp::kShl, kRegV2, kRegOffset, 3);        // offset * 8
  b.movi(kRegV3, static_cast<std::int64_t>(Layout::kArray1));
  b.alu(AluOp::kAdd, kRegV2, kRegV2, kRegV3);
  b.load(kRegV2, kRegV2, 0);                         // v = array1[offset]
  // Short transmit chain (one shift, probe base as displacement): the
  // probe touch must issue before the bounds check resolves.
  b.alui(AluOp::kShl, kRegV2, kRegV2, 8);            // v * kProbeStride
  b.load(kRegV4, kRegV2,
         static_cast<std::int64_t>(Layout::kProbe));  // touch probe[v]
  b.label("skip");
  b.ret();
}

void emit_probe_flush(ProgramBuilder& b, const std::string& label_prefix) {
  const std::string loop = label_prefix + "_flush_loop";
  b.movi(kRegC, 0);
  b.movi(kRegProbeBase, static_cast<std::int64_t>(Layout::kProbe));
  b.label(loop);
  b.alui(AluOp::kMul, kRegTmp1, kRegC, Layout::kProbeStride);
  b.alu(AluOp::kAdd, kRegTmp1, kRegTmp1, kRegProbeBase);
  b.flush(kRegTmp1, 0);
  b.alui(AluOp::kAdd, kRegC, kRegC, 1);
  b.movi(kRegTmp2, Layout::kCandidates);
  b.branch(CondOp::kLt, kRegC, kRegTmp2, loop);
  b.fence();
}

void emit_receiver(ProgramBuilder& b, const std::string& label_prefix) {
  const std::string loop = label_prefix + "_rx_loop";
  b.movi(kRegC, 0);
  b.movi(kRegProbeBase, static_cast<std::int64_t>(Layout::kProbe));
  b.movi(kRegResultBase, static_cast<std::int64_t>(Layout::kResults));
  b.label(loop);
  b.alui(AluOp::kMul, kRegTmp1, kRegC, Layout::kProbeStride);
  b.alu(AluOp::kAdd, kRegTmp1, kRegTmp1, kRegProbeBase);
  b.fence();
  b.rdcycle(kRegT1);
  b.load(kRegTmp2, kRegTmp1, 0);
  b.fence();  // the timed load must be architecturally complete
  b.rdcycle(kRegT2);
  b.alu(AluOp::kSub, kRegT2, kRegT2, kRegT1);
  b.alui(AluOp::kMul, kRegTmp1, kRegC, 8);
  b.alu(AluOp::kAdd, kRegTmp1, kRegTmp1, kRegResultBase);
  b.store(kRegT2, kRegTmp1, 0);
  b.alui(AluOp::kAdd, kRegC, kRegC, 1);
  b.movi(kRegTmp2, Layout::kCandidates);
  b.branch(CondOp::kLt, kRegC, kRegTmp2, loop);
  b.fence();
}

void map_attack_regions(sim::Simulator& sim) {
  sim.map_text();
  sim.map_region(Layout::kProbe,
                 static_cast<std::uint64_t>(Layout::kCandidates) *
                     Layout::kProbeStride);
  sim.map_region(Layout::kResults,
                 static_cast<std::uint64_t>(Layout::kCandidates) * 8);
  sim.map_region(Layout::kArray1, kPageSize);
  sim.map_region(Layout::kBound, kPageSize);
  sim.map_region(Layout::kSecretUser, kPageSize);
  sim.map_region(Layout::kFptr, kPageSize);
}

void warm_secret(sim::Simulator& sim, Addr addr, bool kernel_page) {
  sim.core().hierarchy().fill_all_levels(line_of(addr), memory::Side::kData);
  sim.core().dtlb().fill({page_of(addr), page_of(addr), kernel_page});
}

ReceiverReading read_receiver(const sim::Simulator& sim) {
  return read_receiver(sim, 0);
}

ReceiverReading read_receiver(const sim::Simulator& sim, int core) {
  ReceiverReading r;
  r.latencies.reserve(Layout::kCandidates);
  for (int c = 0; c < Layout::kCandidates; ++c) {
    r.latencies.push_back(sim.peek_on(core, Layout::kResults + 8ull * c));
  }
  std::uint64_t best = ~0ull, second = ~0ull;
  for (int c = 0; c < Layout::kCandidates; ++c) {
    const auto v = r.latencies[static_cast<std::size_t>(c)];
    if (v < best) {
      second = best;
      best = v;
      r.best_candidate = c;
    } else if (v < second) {
      second = v;
    }
  }
  r.best_latency = best;
  r.margin = second == ~0ull ? 0 : second - best;
  return r;
}

}  // namespace safespec::attacks
