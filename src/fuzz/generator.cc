#include "fuzz/generator.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "common/types.h"
#include "isa/instruction.h"

namespace safespec::fuzz {

using isa::AluOp;
using isa::CondOp;
using isa::ProgramBuilder;

namespace {

constexpr Addr kTextBase = 0x100000;
constexpr Addr kDataBase = 0x10000000;
constexpr Addr kKernelBase = 0x20000000;
/// Speculative-only gadgets sometimes poke here: never mapped, so a
/// wrong-path load down this address must leave no architectural trace.
constexpr Addr kUnmappedBase = 0x40000000;

// Register allocation for generated code. The invariant registers
// (counter, region bases, guard) are never picked as destinations of
// random compute, so every architectural path stays bounded and mapped.
constexpr RegIndex kLoopCounter = 1;  ///< outer-loop countdown
constexpr RegIndex kDataPtr = 2;      ///< user data region base
constexpr RegIndex kChasePtr = 3;     ///< chase region base
constexpr RegIndex kChaseCur = 4;     ///< chase cursor (absolute address)
constexpr RegIndex kLcg = 5;          ///< in-program LCG state
constexpr RegIndex kScratchA = 6;
constexpr RegIndex kScratchB = 7;
constexpr RegIndex kScratchC = 8;
constexpr RegIndex kSink = 9;         ///< results accumulate here
constexpr RegIndex kStoreVal = 10;
constexpr RegIndex kStreamOff = 11;   ///< streaming cursor (offset)
constexpr RegIndex kKernelPtr = 12;   ///< kernel region base
constexpr RegIndex kGuard = 13;       ///< always zero (speculation guards)
constexpr RegIndex kLinkSave = 30;    ///< saved link for nested calls

/// Destinations random compute may clobber (scratch + a wide band to
/// stress renaming). Excludes the invariant registers, kChaseCur (the
/// chase step re-derives it from kChasePtr, but a clobbered cursor would
/// still be one load away from an unmapped page) and the link registers.
constexpr RegIndex kWritable[] = {6,  7,  8,  9,  10, 11, 14, 15, 16, 17,
                                  18, 19, 20, 21, 22, 23, 24, 25};
/// Sources random compute may read (anything with a defined value).
constexpr RegIndex kReadable[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,
                                  10, 11, 13, 14, 15, 16, 17, 18, 19,
                                  20, 21, 22, 23, 24, 25};

std::uint64_t floor_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

template <std::size_t N>
RegIndex pick(Rng& rng, const RegIndex (&set)[N]) {
  return set[rng.below(N)];
}

/// Shared state of one generation run.
struct Gen {
  Rng rng;
  const FuzzSpec& spec;
  ProgramBuilder b{kTextBase};
  int label_seq = 0;

  std::uint64_t data_bytes = 0;    ///< power of two
  std::uint64_t chase_bytes = 0;   ///< power of two
  Addr chase_base = 0;

  Gen(std::uint64_t seed, const FuzzSpec& s) : rng(seed), spec(s) {}

  std::string uid(const char* prefix) {
    return std::string(prefix) + "_" + std::to_string(label_seq++);
  }

  std::uint64_t word_mask() const { return data_bytes / 8 - 1; }

  /// dst = kDataBase + ((src >> shift) & word_mask) * 8 — a data-region
  /// address derived from whatever junk `src` holds; total by masking.
  void masked_data_addr(RegIndex dst, RegIndex src) {
    b.alui(AluOp::kShr, dst, src, static_cast<std::int64_t>(rng.below(24)));
    b.alui(AluOp::kAnd, dst, dst, static_cast<std::int64_t>(word_mask()));
    b.alui(AluOp::kShl, dst, dst, 3);
    b.alu(AluOp::kAdd, dst, dst, kDataPtr);
  }

  /// Advances the in-program LCG once (branches and addresses key off it
  /// so outcomes are data-dependent, not static).
  void advance_lcg() {
    b.alui(AluOp::kMul, kLcg, kLcg, 0x5851F42D);
    b.alui(AluOp::kAdd, kLcg, kLcg, 0x14057B7F);
  }

  // ---- scenario blocks --------------------------------------------------

  void emit_branch_heavy() {
    const int branches = static_cast<int>(rng.range(3, 6));
    for (int i = 0; i < branches; ++i) {
      if (rng.chance(0.3)) {
        // Small counted inner loop: a well-predicted backward branch
        // with real dynamic execution counts.
        const std::string loop = uid("bh_loop");
        b.movi(kScratchB, static_cast<std::int64_t>(rng.range(2, 4)));
        b.label(loop);
        b.alui(AluOp::kAdd, kSink, kSink, 1);
        b.alui(AluOp::kXor, kSink, kSink, 0x2D);
        b.alui(AluOp::kSub, kScratchB, kScratchB, 1);
        b.branch(CondOp::kNe, kScratchB, kZeroReg, loop);
        continue;
      }
      // Forward skip on a data-dependent condition. bits=0 makes the
      // condition constant (fully predictable); more bits add noise. The
      // condition mixes in the sink so resolution waits on in-flight
      // loads — the dependence that opens deep speculation windows.
      const std::string skip = uid("bh_skip");
      const int bits = static_cast<int>(rng.below(4));
      b.alu(AluOp::kXor, kScratchA, kLcg, kSink);
      b.alui(AluOp::kShr, kScratchA, kScratchA,
             static_cast<std::int64_t>(rng.below(16)));
      b.alui(AluOp::kAnd, kScratchA, kScratchA, (1LL << bits) - 1);
      b.branch(CondOp::kEq, kScratchA, kZeroReg, skip);
      b.alui(AluOp::kAdd, kSink, kSink, 3);
      if (rng.chance(0.5)) b.alui(AluOp::kXor, kSink, kSink, 0x55);
      b.label(skip);
    }
  }

  void emit_pointer_chase() {
    const int steps = static_cast<int>(rng.range(3, 8));
    for (int i = 0; i < steps; ++i) {
      // The chase region stores *offsets*, and each step re-masks the
      // loaded value, so the walk stays in-region even if stores have
      // scribbled over the links.
      b.load(kScratchA, kChaseCur, 0);
      b.alui(AluOp::kAnd, kScratchA, kScratchA,
             static_cast<std::int64_t>(chase_bytes - 8));
      b.alu(AluOp::kAdd, kChaseCur, kChasePtr, kScratchA);
      if (rng.chance(0.4)) b.alu(AluOp::kXor, kSink, kSink, kScratchA);
    }
    if (rng.chance(0.5)) {
      // Chase-dependent store into the data region.
      masked_data_addr(kScratchB, kScratchA);
      b.store(kScratchA, kScratchB, 0);
    }
  }

  void emit_protected_window() {
    const std::uint64_t kernel_words = spec.kernel_bytes / 8;
    const std::int64_t secret_off =
        static_cast<std::int64_t>(8 * rng.below(kernel_words));
    if (spec.install_fault_handler && rng.chance(spec.fault_frac)) {
      // Meltdown-shaped: on 1/8 of iterations the kernel load is
      // architecturally reached, commits a permission fault and recovers
      // through the fault handler (which jumps to the loop tail).
      const std::string nofault = uid("pw_nofault");
      b.alui(AluOp::kShr, kScratchA, kLcg,
             static_cast<std::int64_t>(rng.below(16)));
      b.alui(AluOp::kAnd, kScratchA, kScratchA, 7);
      b.branch(CondOp::kNe, kScratchA, kZeroReg, nofault);
      b.load(kScratchB, kKernelPtr, secret_off);  // always faults at commit
      b.label(nofault);
      return;
    }
    // Spectre-shaped: the guard is architecturally always taken, so the
    // fall-through gadget — kernel secret steering a dependent user load,
    // or a touch of an unmapped page — only ever runs speculatively.
    // Under any SafeSpec policy its side effects must die with the
    // squash; the harness checks the committed state never sees them.
    const std::string safe = uid("pw_safe");
    b.branch(CondOp::kEq, kGuard, kZeroReg, safe);
    if (rng.chance(0.25)) {
      b.movi(kScratchB, static_cast<std::int64_t>(
                            kUnmappedBase + 8 * rng.below(512)));
      b.load(kScratchC, kScratchB, 0);
    } else {
      b.load(kScratchA, kKernelPtr, secret_off);
      b.alui(AluOp::kAnd, kScratchB, kScratchA,
             static_cast<std::int64_t>(word_mask()));
      b.alui(AluOp::kShl, kScratchB, kScratchB, 3);
      b.alu(AluOp::kAdd, kScratchB, kScratchB, kDataPtr);
      b.load(kScratchC, kScratchB, 0);  // transmit
    }
    b.label(safe);
  }

  void emit_self_confusing() {
    if (rng.chance(0.35)) {
      // Call/ret nest: the RSB's stack discipline, including a nested
      // call that must save and restore the single link register.
      b.call(rng.chance(0.5) ? "func_a" : "func_b");
      if (rng.chance(0.5)) b.call("func_a");
      return;
    }
    // LCG-driven 4-way jump table: the indirect branch's target changes
    // from iteration to iteration, mistraining the BTB against itself.
    const std::string dispatch = uid("sc_dispatch");
    const std::string join = uid("sc_join");
    constexpr int kSlotInstrs = 8;  // fixed stride: 32 bytes per slot
    b.jump(dispatch);
    const Addr slot0 = b.here();
    for (int k = 0; k < 4; ++k) {
      b.alui(AluOp::kAdd, kSink, kSink, 7 * (k + 1));
      b.alui(AluOp::kXor, kSink, kSink, 0x11 << k);
      b.alui(AluOp::kMul, kScratchC, kLcg, 3 + k);
      b.alu(AluOp::kXor, kSink, kSink, kScratchC);
      for (int pad = 4; pad < kSlotInstrs - 1; ++pad) b.nop();
      b.jump(join);
    }
    b.label(dispatch);
    b.alui(AluOp::kShr, kScratchA, kLcg,
           static_cast<std::int64_t>(rng.below(16)));
    b.alui(AluOp::kAnd, kScratchA, kScratchA, 3);
    b.alui(AluOp::kShl, kScratchA, kScratchA, 5);  // * 32-byte stride
    b.movi(kScratchB, static_cast<std::int64_t>(slot0));
    b.alu(AluOp::kAdd, kScratchA, kScratchA, kScratchB);
    b.jump_reg(kScratchA);
    b.label(join);
  }

  void emit_mixed_compute() {
    const int ops = static_cast<int>(rng.range(6, 14));
    for (int i = 0; i < ops; ++i) {
      static constexpr AluOp kOps[] = {
          AluOp::kAdd, AluOp::kSub, AluOp::kAnd, AluOp::kOr,  AluOp::kXor,
          AluOp::kShl, AluOp::kShr, AluOp::kAdd, AluOp::kXor, AluOp::kMul,
          AluOp::kDiv};
      const AluOp op = kOps[rng.below(std::size(kOps))];
      const RegIndex dst = pick(rng, kWritable);
      const RegIndex src1 = pick(rng, kReadable);
      if (rng.chance(0.5)) {
        // Immediate operand; divides keep a register divisor below so a
        // zero divisor (e.g. the guard register) stays reachable.
        const std::int64_t imm =
            static_cast<std::int64_t>(rng.below(1 << 16)) - (1 << 15);
        b.alui(op, dst, src1, op == AluOp::kDiv && imm == 0 ? 3 : imm);
      } else {
        b.alu(op, dst, src1, pick(rng, kReadable));
      }
    }
  }

  void emit_mem_storm() {
    const int ops = static_cast<int>(rng.range(5, 10));
    for (int i = 0; i < ops; ++i) {
      const double roll = rng.uniform();
      if (roll < 0.30) {
        masked_data_addr(kScratchA, pick(rng, kReadable));
        b.load(kScratchB, kScratchA, 0);
        b.alu(AluOp::kXor, kSink, kSink, kScratchB);
      } else if (roll < 0.45) {
        // Streaming load: word-granular walk wrapping in the footprint.
        b.alui(AluOp::kAdd, kStreamOff, kStreamOff, 8);
        b.alui(AluOp::kAnd, kStreamOff, kStreamOff,
               static_cast<std::int64_t>(data_bytes - 1));
        b.alu(AluOp::kAdd, kScratchA, kStreamOff, kDataPtr);
        b.load(kScratchB, kScratchA, 0);
      } else if (roll < 0.70) {
        b.alui(AluOp::kAdd, kStoreVal, kStoreVal,
               static_cast<std::int64_t>(rng.range(1, 255)));
        masked_data_addr(kScratchA, kLcg);
        b.store(kStoreVal, kScratchA, 0);
      } else if (roll < 0.85) {
        // Store-to-load forwarding pair on the same word.
        masked_data_addr(kScratchA, pick(rng, kReadable));
        b.store(kStoreVal, kScratchA, 0);
        b.load(kScratchB, kScratchA, 0);
        b.alu(AluOp::kXor, kSink, kSink, kScratchB);
      } else if (roll < 0.95) {
        masked_data_addr(kScratchA, kLcg);
        b.flush(kScratchA, 0);
      } else {
        b.fence();
      }
    }
  }
};

}  // namespace

FuzzProgram generate_program(std::uint64_t seed, const FuzzSpec& spec) {
  spec.validate();
  Gen g(seed, spec);
  FuzzProgram out;

  g.data_bytes = floor_pow2(std::max<std::uint64_t>(spec.data_bytes,
                                                    2 * kPageSize));
  g.chase_bytes = floor_pow2(std::clamp<std::uint64_t>(
      g.data_bytes / 4, kPageSize, 8 * 1024));
  g.chase_base = kDataBase + g.data_bytes;

  out.regions.push_back(
      {kDataBase, g.data_bytes + g.chase_bytes, memory::PagePerm::kUser});
  out.regions.push_back(
      {kKernelBase, spec.kernel_bytes, memory::PagePerm::kKernel});

  // ---- initial memory image --------------------------------------------
  // Chase region: a random cycle of word offsets, so chased loads are
  // serially dependent with no locality.
  {
    const std::uint64_t words = g.chase_bytes / 8;
    std::vector<std::uint32_t> perm(words);
    for (std::uint64_t i = 0; i < words; ++i) {
      perm[i] = static_cast<std::uint32_t>(i);
    }
    for (std::uint64_t i = words - 1; i > 0; --i) {
      std::swap(perm[i], perm[g.rng.below(i + 1)]);
    }
    out.init_words.reserve(words + 48);
    for (std::uint64_t i = 0; i < words; ++i) {
      out.init_words.push_back({g.chase_base + 8 * perm[i],
                                8 * perm[(i + 1) % words]});
    }
  }
  // Seed data so random loads see nonzero values, and kernel secrets so
  // speculative gadgets have something to leak.
  for (int i = 0; i < 32; ++i) {
    out.init_words.push_back(
        {kDataBase + 8 * g.rng.below(g.data_bytes / 8), g.rng.next()});
  }
  for (int i = 0; i < 16; ++i) {
    out.init_words.push_back(
        {kKernelBase + 8 * g.rng.below(spec.kernel_bytes / 8), g.rng.next()});
  }

  // ---- prologue ---------------------------------------------------------
  ProgramBuilder& b = g.b;
  b.jump("main");  // skip the helper bodies laid out next

  b.label("fault_handler");
  b.jump("recover");

  b.label("func_a");
  b.alui(AluOp::kAdd, kSink, kSink, 0x101);
  b.alui(AluOp::kXor, kSink, kSink, 0x33);
  b.ret();

  // func_b nests a call, saving/restoring the single link register.
  b.label("func_b");
  b.alu(AluOp::kAdd, kLinkSave, isa::kLinkReg, kZeroReg);
  b.call("func_a");
  b.alui(AluOp::kAdd, kSink, kSink, 0x202);
  b.alu(AluOp::kAdd, isa::kLinkReg, kLinkSave, kZeroReg);
  b.ret();

  b.label("main");
  b.movi(kDataPtr, static_cast<std::int64_t>(kDataBase));
  b.movi(kChasePtr, static_cast<std::int64_t>(g.chase_base));
  b.movi(kChaseCur, static_cast<std::int64_t>(g.chase_base));
  b.movi(kKernelPtr, static_cast<std::int64_t>(kKernelBase));
  b.movi(kLcg, static_cast<std::int64_t>(seed | 1));
  b.movi(kGuard, 0);
  b.movi(kSink, 0);
  b.movi(kStoreVal, 0x1234);
  b.movi(kStreamOff, 0);
  b.movi(kLoopCounter, spec.loop_iterations);

  // ---- body: weighted scenario blocks inside the outer loop -------------
  const int blocks = static_cast<int>(
      g.rng.range(static_cast<std::uint64_t>(spec.min_blocks),
                  static_cast<std::uint64_t>(spec.max_blocks)));
  struct Class {
    const char* name;
    double weight;
    void (Gen::*emit)();
  };
  const Class classes[] = {
      {"branch-heavy", spec.weights.branch_heavy, &Gen::emit_branch_heavy},
      {"pointer-chase", spec.weights.pointer_chase, &Gen::emit_pointer_chase},
      {"protected-window", spec.weights.protected_window,
       &Gen::emit_protected_window},
      {"self-confusing", spec.weights.self_confusing,
       &Gen::emit_self_confusing},
      {"mixed-compute", spec.weights.mixed_compute, &Gen::emit_mixed_compute},
      {"mem-storm", spec.weights.mem_storm, &Gen::emit_mem_storm},
  };

  b.label("outer");
  for (int i = 0; i < blocks; ++i) {
    g.advance_lcg();
    double roll = g.rng.uniform() * spec.weights.total();
    const Class* chosen = &classes[0];
    for (const Class& c : classes) {
      if (roll < c.weight) {
        chosen = &c;
        break;
      }
      roll -= c.weight;
    }
    out.classes.emplace_back(chosen->name);
    (g.*(chosen->emit))();
  }

  b.label("recover");  // fault handler resumes the loop here
  b.alui(AluOp::kSub, kLoopCounter, kLoopCounter, 1);
  b.branch(CondOp::kNe, kLoopCounter, kZeroReg, "outer");
  b.halt();

  out.program = b.build();
  out.program.set_entry(kTextBase);
  if (spec.install_fault_handler) {
    out.program.set_fault_handler(b.label_addr("fault_handler"));
  }

  // Worst case per iteration: every block at its longest (inner loops
  // included) stays well under 160 instructions.
  out.max_instrs_hint =
      static_cast<std::uint64_t>(spec.loop_iterations) *
          (static_cast<std::uint64_t>(blocks) * 160 + 32) +
      64;
  return out;
}

}  // namespace safespec::fuzz
