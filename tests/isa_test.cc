// Unit and property tests for the micro-ISA: ALU/condition evaluation,
// instruction classification, and the ProgramBuilder (labels, fixups,
// layout errors).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "isa/instruction.h"
#include "isa/program.h"

namespace safespec::isa {
namespace {

// ---- eval_alu ----------------------------------------------------------------

TEST(EvalAlu, BasicOps) {
  EXPECT_EQ(eval_alu(AluOp::kAdd, 2, 3), 5u);
  EXPECT_EQ(eval_alu(AluOp::kSub, 2, 3), static_cast<std::uint64_t>(-1));
  EXPECT_EQ(eval_alu(AluOp::kAnd, 0b1100, 0b1010), 0b1000u);
  EXPECT_EQ(eval_alu(AluOp::kOr, 0b1100, 0b1010), 0b1110u);
  EXPECT_EQ(eval_alu(AluOp::kXor, 0b1100, 0b1010), 0b0110u);
  EXPECT_EQ(eval_alu(AluOp::kShl, 1, 10), 1024u);
  EXPECT_EQ(eval_alu(AluOp::kShr, 1024, 10), 1u);
  EXPECT_EQ(eval_alu(AluOp::kMul, 6, 7), 42u);
  EXPECT_EQ(eval_alu(AluOp::kDiv, 42, 6), 7u);
  EXPECT_EQ(eval_alu(AluOp::kMovImm, 99, 7), 7u);
}

TEST(EvalAlu, DivisionByZeroIsTotal) {
  EXPECT_EQ(eval_alu(AluOp::kDiv, 42, 0), ~0ull);
}

TEST(EvalAlu, ShiftAmountsMasked) {
  // Shifts use the low 6 bits of the amount (as on x86-64).
  EXPECT_EQ(eval_alu(AluOp::kShl, 1, 64), 1u);
  EXPECT_EQ(eval_alu(AluOp::kShr, 8, 65), 4u);
}

TEST(EvalAluProperty, XorIsInvolution) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const auto a = rng.next();
    const auto b = rng.next();
    EXPECT_EQ(eval_alu(AluOp::kXor, eval_alu(AluOp::kXor, a, b), b), a);
  }
}

TEST(EvalAluProperty, AddSubRoundTrip) {
  Rng rng(12);
  for (int i = 0; i < 200; ++i) {
    const auto a = rng.next();
    const auto b = rng.next();
    EXPECT_EQ(eval_alu(AluOp::kSub, eval_alu(AluOp::kAdd, a, b), b), a);
  }
}

// ---- eval_cond -----------------------------------------------------------------

TEST(EvalCond, SignedVsUnsigned) {
  const std::uint64_t minus_one = ~0ull;
  EXPECT_TRUE(eval_cond(CondOp::kLt, minus_one, 1));   // signed: -1 < 1
  EXPECT_FALSE(eval_cond(CondOp::kLtu, minus_one, 1)); // unsigned: max > 1
  EXPECT_TRUE(eval_cond(CondOp::kGeu, minus_one, 1));
  EXPECT_FALSE(eval_cond(CondOp::kGe, minus_one, 1));
}

TEST(EvalCondProperty, PairsAreComplements) {
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const auto a = rng.next();
    const auto b = rng.next();
    EXPECT_NE(eval_cond(CondOp::kEq, a, b), eval_cond(CondOp::kNe, a, b));
    EXPECT_NE(eval_cond(CondOp::kLt, a, b), eval_cond(CondOp::kGe, a, b));
    EXPECT_NE(eval_cond(CondOp::kLtu, a, b), eval_cond(CondOp::kGeu, a, b));
  }
}

// ---- instruction classification ---------------------------------------------

TEST(Instruction, Classification) {
  Instruction i;
  i.op = OpClass::kBranch;
  EXPECT_TRUE(i.is_branch());
  EXPECT_FALSE(i.is_memory());
  i.op = OpClass::kLoad;
  EXPECT_TRUE(i.is_memory());
  EXPECT_FALSE(i.is_branch());
  i.op = OpClass::kFlush;
  EXPECT_TRUE(i.is_memory());
}

TEST(Instruction, WritesRegisterRules) {
  Instruction i;
  i.op = OpClass::kAlu;
  i.dst = 5;
  EXPECT_TRUE(i.writes_register());
  i.dst = kZeroReg;  // writes to r0 are discarded
  EXPECT_FALSE(i.writes_register());
  i.op = OpClass::kStore;
  i.dst = 5;
  EXPECT_FALSE(i.writes_register());
  i.op = OpClass::kCall;
  i.dst = kLinkReg;
  EXPECT_TRUE(i.writes_register());
}

TEST(Instruction, ToStringMentionsOpcode) {
  Instruction i;
  i.op = OpClass::kLoad;
  EXPECT_NE(to_string(i).find("load"), std::string::npos);
}

// ---- Program / ProgramBuilder --------------------------------------------------

TEST(Program, PlaceAndLookup) {
  Program p;
  Instruction i;
  i.op = OpClass::kNop;
  p.place(0x1000, i);
  EXPECT_NE(p.at(0x1000), nullptr);
  EXPECT_EQ(p.at(0x1004), nullptr);
  EXPECT_TRUE(p.contains(0x1000));
}

TEST(Program, MisalignedPlaceThrows) {
  Program p;
  EXPECT_THROW(p.place(0x1002, Instruction{}), std::invalid_argument);
}

TEST(Program, DoubleOccupancyThrowsUnlessOverwrite) {
  Program p;
  p.place(0x1000, Instruction{});
  EXPECT_THROW(p.place(0x1000, Instruction{}), std::invalid_argument);
  EXPECT_NO_THROW(p.place(0x1000, Instruction{}, /*overwrite=*/true));
}

TEST(Program, PatchingACopyLeavesTheOtherIntact) {
  ProgramBuilder b(0x1000);
  b.movi(1, 7).movi(2, 8).halt();
  const Program original = b.build();
  Program patched = original;  // shares the text pages
  const Instruction* held = original.at(0x1004);
  patched.place(0x1004, Instruction{}, /*overwrite=*/true);
  EXPECT_EQ(original.at(0x1004), held);  // still valid, still the movi
  EXPECT_EQ(held->op, OpClass::kAlu);
  EXPECT_EQ(held->imm, 8);
  EXPECT_EQ(patched.at(0x1004)->op, OpClass::kNop);
  EXPECT_EQ(patched.at(0x1000)->imm, 7);
  EXPECT_EQ(patched.pcs(), original.pcs());
}

TEST(ProgramBuilder, SequentialLayout) {
  ProgramBuilder b(0x1000);
  b.nop().nop().nop();
  EXPECT_EQ(b.here(), 0x1000u + 3 * kInstrBytes);
}

TEST(ProgramBuilder, ForwardLabelResolved) {
  ProgramBuilder b(0x1000);
  b.jump("end");
  b.nop();
  b.label("end").halt();
  const auto p = b.build();
  EXPECT_EQ(p.at(0x1000)->target, b.label_addr("end"));
}

TEST(ProgramBuilder, BackwardLabelResolved) {
  ProgramBuilder b(0x1000);
  b.label("top").nop();
  b.jump("top");
  const auto p = b.build();
  EXPECT_EQ(p.at(0x1004)->target, 0x1000u);
}

TEST(ProgramBuilder, UnboundLabelThrowsAtBuild) {
  ProgramBuilder b(0x1000);
  b.jump("nowhere");
  EXPECT_THROW(b.build(), std::runtime_error);
}

TEST(ProgramBuilder, DuplicateLabelThrows) {
  ProgramBuilder b(0x1000);
  b.label("x");
  EXPECT_THROW(b.label("x"), std::invalid_argument);
}

TEST(ProgramBuilder, AtRepositionsCursor) {
  ProgramBuilder b(0x1000);
  b.nop();
  b.at(0x2000).nop();
  const auto p = b.build();
  EXPECT_TRUE(p.contains(0x1000));
  EXPECT_TRUE(p.contains(0x2000));
  EXPECT_THROW(b.at(0x2002), std::invalid_argument);
}

TEST(ProgramBuilder, PcsSortedAscending) {
  ProgramBuilder b(0x2000);
  b.nop();
  b.at(0x1000).nop();
  const auto pcs = b.build().pcs();
  ASSERT_EQ(pcs.size(), 2u);
  EXPECT_LT(pcs[0], pcs[1]);
}

TEST(ProgramBuilder, EmittersEncodeOperands) {
  ProgramBuilder b(0x1000);
  b.movi(3, 42);
  b.load(4, 3, 8);
  b.store(4, 3, 16);
  b.flush(3, 0);
  const auto p = b.build();
  const auto* movi = p.at(0x1000);
  EXPECT_EQ(movi->alu, AluOp::kMovImm);
  EXPECT_EQ(movi->dst, 3);
  EXPECT_EQ(movi->imm, 42);
  const auto* load = p.at(0x1004);
  EXPECT_EQ(load->op, OpClass::kLoad);
  EXPECT_EQ(load->src1, 3);
  EXPECT_EQ(load->imm, 8);
  const auto* store = p.at(0x1008);
  EXPECT_EQ(store->op, OpClass::kStore);
  EXPECT_EQ(store->src2, 4);
}

}  // namespace
}  // namespace safespec::isa
