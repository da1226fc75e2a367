#include <algorithm>
#include <stdexcept>

#include "common/rng.h"
#include "isa/instruction.h"
#include "trace/trace_workload.h"
#include "workloads/workload.h"

namespace safespec::workloads {

using isa::AluOp;
using isa::CondOp;
using isa::ProgramBuilder;

namespace {

constexpr Addr kTextBase = 0x100000;
constexpr Addr kDataBase = 0x10000000;

// Register allocation for generated code.
constexpr RegIndex kLoopCounter = 1;   ///< outer-loop countdown
constexpr RegIndex kDataPtr = 2;       ///< data base
constexpr RegIndex kStreamPtr = 3;     ///< streaming cursor (offset)
constexpr RegIndex kChasePtr = 4;      ///< pointer-chase cursor (address)
constexpr RegIndex kLcg = 5;           ///< in-program LCG state
constexpr RegIndex kScratchA = 6;
constexpr RegIndex kScratchB = 7;
constexpr RegIndex kSink = 8;          ///< load results accumulate here
constexpr RegIndex kStoreVal = 9;

/// Rounds down to a power of two (footprints must be maskable).
std::uint64_t floor_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

}  // namespace

WorkloadImage generate(const WorkloadProfile& profile,
                       std::uint64_t target_instrs) {
  // "@" round-trips the synthetic image through the trace codec in
  // memory: the same program, decoded from its encoding.
  if (profile.trace_file == "@") {
    WorkloadProfile inner = profile;
    inner.trace_file.clear();
    return trace::to_workload_image(
        trace::decode(trace::encode(
            trace::record_workload(generate(inner, target_instrs)))));
  }
  if (profile.code_blocks <= 0 || profile.block_len <= 0) {
    throw std::invalid_argument("generate: empty workload body");
  }
  Rng rng(profile.seed);
  WorkloadImage image;

  const std::uint64_t footprint = floor_pow2(
      std::max<std::uint64_t>(profile.data_footprint, 2 * kPageSize));
  const std::uint64_t chase_bytes =
      profile.chase_footprint == 0
          ? 0
          : floor_pow2(std::max<std::uint64_t>(profile.chase_footprint,
                                               kPageSize));
  image.regions.push_back(
      {kDataBase, footprint + chase_bytes, memory::PagePerm::kUser});
  const Addr chase_base = kDataBase + footprint;

  // Pointer-chase region: a random cycle over the chase words, so chased
  // loads are serially dependent with no locality — the mcf/omnetpp
  // behaviour class.
  if (chase_bytes != 0) {
    const std::uint64_t words = chase_bytes / 8;
    std::vector<std::uint32_t> perm(words);
    for (std::uint64_t i = 0; i < words; ++i) {
      perm[i] = static_cast<std::uint32_t>(i);
    }
    for (std::uint64_t i = words - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.below(i + 1)]);
    }
    // Link i points at link i + 1, the last at the first. Fields are set
    // in place: a braced temporary per link stalls store forwarding.
    image.init_words.resize(words);
    for (std::uint64_t i = 0; i < words; ++i) {
      memory::Poke& link = image.init_words[i];
      link.addr = chase_base + 8 * perm[i];
      link.value = chase_base + 8 * perm[i + 1 < words ? i + 1 : 0];
    }
  }

  ProgramBuilder b(kTextBase);

  // ---- prologue ---------------------------------------------------------
  b.movi(kDataPtr, static_cast<std::int64_t>(kDataBase));
  b.movi(kStreamPtr, 0);
  b.movi(kChasePtr, static_cast<std::int64_t>(chase_base));
  b.movi(kLcg, static_cast<std::int64_t>(profile.seed | 1));
  b.movi(kSink, 0);
  b.movi(kStoreVal, 0x1234);

  // The body executes code_blocks blocks per outer iteration; size the
  // iteration count from the approximate body length.
  const std::uint64_t body_len =
      static_cast<std::uint64_t>(profile.code_blocks) *
      (static_cast<std::uint64_t>(profile.block_len) + 3);
  const std::uint64_t iterations =
      std::max<std::uint64_t>(1, target_instrs / std::max<std::uint64_t>(
                                                     1, body_len));
  b.movi(kLoopCounter, static_cast<std::int64_t>(iterations));
  b.label("outer");

  const std::uint64_t word_mask = footprint / 8 - 1;
  const std::uint64_t chase_mask = chase_bytes == 0 ? 0 : chase_bytes / 8 - 1;
  (void)chase_mask;

  for (int block = 0; block < profile.code_blocks; ++block) {
    // Advance the in-program LCG once per block; branches and random
    // addresses key off it so outcomes are data-dependent, not static.
    b.alui(AluOp::kMul, kLcg, kLcg, 0x5851F42D);  // 32-bit LCG multiplier
    b.alui(AluOp::kAdd, kLcg, kLcg, 0x14057B7F);

    for (int slot = 0; slot < profile.block_len; ++slot) {
      const double roll = rng.uniform();
      if (roll < profile.load_frac) {
        const double kind = rng.uniform();
        if (kind < profile.chase_frac && chase_bytes != 0) {
          // Serially dependent chase: ptr = MEM[ptr].
          b.load(kChasePtr, kChasePtr, 0);
        } else if (kind < profile.chase_frac + profile.stream_frac) {
          // Streaming: word-granular walk (spatial reuse within a line),
          // wrapping in the footprint.
          b.alui(AluOp::kAdd, kStreamPtr, kStreamPtr, 8);
          b.alui(AluOp::kAnd, kStreamPtr, kStreamPtr,
                 static_cast<std::int64_t>(footprint - 1));
          b.alu(AluOp::kAdd, kScratchA, kStreamPtr, kDataPtr);
          b.load(kScratchB, kScratchA, 0);
          b.alu(AluOp::kXor, kSink, kSink, kScratchB);
        } else {
          // Random access with temporal locality: mostly inside a hot
          // set, occasionally anywhere in the footprint.
          const bool hot = rng.uniform() < profile.hot_frac;
          const std::uint64_t region_mask =
              hot ? (floor_pow2(std::max<std::uint64_t>(
                        profile.hot_bytes, kPageSize)) /
                         8 -
                     1)
                  : word_mask;
          b.alui(AluOp::kShr, kScratchA, kLcg,
                 static_cast<std::int64_t>(8 + (slot % 3)));
          b.alui(AluOp::kAnd, kScratchA, kScratchA,
                 static_cast<std::int64_t>(region_mask));
          b.alui(AluOp::kShl, kScratchA, kScratchA, 3);
          b.alu(AluOp::kAdd, kScratchA, kScratchA, kDataPtr);
          b.load(kScratchB, kScratchA, 0);
          b.alu(AluOp::kXor, kSink, kSink, kScratchB);
        }
      } else if (roll < profile.load_frac + profile.store_frac) {
        // Stores land in the hot set (typical write locality).
        const std::uint64_t store_mask =
            floor_pow2(std::max<std::uint64_t>(profile.hot_bytes, kPageSize)) /
                8 -
            1;
        b.alui(AluOp::kShr, kScratchA, kLcg, 5);
        b.alui(AluOp::kAnd, kScratchA, kScratchA,
               static_cast<std::int64_t>(store_mask));
        b.alui(AluOp::kShl, kScratchA, kScratchA, 3);
        b.alu(AluOp::kAdd, kScratchA, kScratchA, kDataPtr);
        b.store(kStoreVal, kScratchA, 0);
      } else {
        // Compute slot.
        const double op = rng.uniform();
        if (op < profile.div_frac) {
          b.alui(AluOp::kDiv, kSink, kSink, 3);
        } else if (op < profile.div_frac + profile.mul_frac) {
          b.alui(AluOp::kMul, kScratchB, kLcg, 0x9E37);
          b.alu(AluOp::kXor, kSink, kSink, kScratchB);
        } else {
          b.alui(AluOp::kAdd, kSink, kSink, 1);
        }
      }
    }

    // Block-terminating data-dependent branch: skip a small epilogue with
    // probability controlled by branch_random_bits (0 bits => coin flip,
    // k bits => taken once per 2^k — highly predictable).
    if (rng.uniform() < profile.branch_frac * profile.block_len / 4.0) {
      const std::string skip = "skip_" + std::to_string(block);
      const std::int64_t mask =
          (1LL << std::max(0, profile.branch_random_bits)) - 1;
      // The condition mixes in the load-result accumulator, so branch
      // resolution waits for in-flight loads — real programs branch on
      // loaded data, and that dependence is what opens deep speculation
      // windows (the entropy still comes from the LCG).
      b.alu(AluOp::kXor, kScratchA, kLcg, kSink);
      b.alui(AluOp::kAnd, kScratchA, kScratchA, mask == 0 ? 1 : mask);
      b.branch(CondOp::kEq, kScratchA, kZeroReg, skip);
      b.alui(AluOp::kAdd, kSink, kSink, 3);
      b.alui(AluOp::kXor, kSink, kSink, 0x55);
      b.label(skip);
    }
  }

  b.alui(AluOp::kSub, kLoopCounter, kLoopCounter, 1);
  b.branch(CondOp::kNe, kLoopCounter, kZeroReg, "outer");
  b.halt();

  image.program = b.build();
  image.program.set_entry(kTextBase);
  return image;
}

}  // namespace safespec::workloads
