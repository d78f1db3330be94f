#include <gtest/gtest.h>

#include <set>

#include "ir/builder.hpp"
#include "ir/dominators.hpp"
#include "ir/dot.hpp"
#include "ir/layout.hpp"
#include "ir/lower.hpp"
#include "ir/program.hpp"
#include "ir/verify.hpp"
#include "support/check.hpp"

namespace ucp::ir {
namespace {

Program straight_line() {
  IrBuilder b("straight");
  b.movi(R(1), 5);
  b.addi(R(1), R(1), 3);
  b.halt();
  return b.take();
}

TEST(Isa, TerminatorsAndBranches) {
  EXPECT_TRUE(is_terminator(Opcode::kBranch));
  EXPECT_TRUE(is_terminator(Opcode::kBranchImm));
  EXPECT_TRUE(is_terminator(Opcode::kJump));
  EXPECT_TRUE(is_terminator(Opcode::kHalt));
  EXPECT_FALSE(is_terminator(Opcode::kAdd));
  EXPECT_TRUE(is_branch(Opcode::kBranch));
  EXPECT_FALSE(is_branch(Opcode::kJump));
}

TEST(Isa, CondEvaluation) {
  EXPECT_TRUE(eval_cond(Cond::kEq, 3, 3));
  EXPECT_FALSE(eval_cond(Cond::kEq, 3, 4));
  EXPECT_TRUE(eval_cond(Cond::kNe, 3, 4));
  EXPECT_TRUE(eval_cond(Cond::kLt, -1, 0));
  EXPECT_TRUE(eval_cond(Cond::kLe, 0, 0));
  EXPECT_TRUE(eval_cond(Cond::kGt, 1, 0));
  EXPECT_TRUE(eval_cond(Cond::kGe, 0, 0));
  EXPECT_FALSE(eval_cond(Cond::kGt, 0, 0));
}

TEST(Isa, RegisterWriteClassification) {
  EXPECT_TRUE(writes_register(Opcode::kAdd));
  EXPECT_TRUE(writes_register(Opcode::kLoad));
  EXPECT_FALSE(writes_register(Opcode::kStore));
  EXPECT_FALSE(writes_register(Opcode::kBranch));
  EXPECT_FALSE(writes_register(Opcode::kPrefetch));
}

TEST(Program, InstructionIdsAreStableAcrossInsertion) {
  Program p = straight_line();
  const InstrId first = p.block(p.entry()).instrs[0].id;
  Instruction nop;
  nop.op = Opcode::kNop;
  const InstrId inserted = p.insert(p.entry(), 1, nop);
  EXPECT_NE(inserted, first);
  EXPECT_EQ(p.block(p.entry()).instrs[0].id, first);
  EXPECT_EQ(p.block(p.entry()).instrs[1].id, inserted);
  EXPECT_EQ(p.instruction_count(), 4u);
}

TEST(Program, EraseRollsBackInsertion) {
  Program p = straight_line();
  Instruction nop;
  nop.op = Opcode::kNop;
  p.insert(p.entry(), 1, nop);
  p.erase(p.entry(), 1);
  EXPECT_EQ(p.instruction_count(), 3u);
}

TEST(Program, LocateFindsInstruction) {
  Program p = straight_line();
  const InstrId id = p.block(p.entry()).instrs[1].id;
  const auto loc = p.locate(id);
  EXPECT_EQ(loc.block, p.entry());
  EXPECT_EQ(loc.index, 1u);
  EXPECT_THROW(p.locate(9999), InvalidArgument);
}

TEST(Program, LoopBoundAccessors) {
  IrBuilder b("loops");
  b.for_range(R(1), 0, 10, [&] { b.nop(); });
  b.halt();
  Program p = b.take();
  bool found = false;
  for (const BasicBlock& bb : p.blocks()) {
    if (p.has_loop_bound(bb.id)) {
      EXPECT_EQ(p.loop_bound(bb.id), 11u);  // 10 trips + exit check
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Builder, ForRangeShape) {
  IrBuilder b("fr");
  b.for_range(R(1), 0, 4, [&] { b.nop(); });
  b.halt();
  Program p = b.take();
  EXPECT_TRUE(verify(p).empty());
  // entry + header + body + exit
  EXPECT_EQ(p.num_blocks(), 4u);
  const auto loops = find_natural_loops(p);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].latches.size(), 1u);
}

TEST(Builder, IfThenElseJoins) {
  IrBuilder b("ite");
  b.movi(R(1), 1);
  b.movi(R(2), 2);
  b.if_then_else(
      Cond::kLt, R(1), R(2), [&] { b.movi(R(3), 10); },
      [&] { b.movi(R(3), 20); });
  b.movi(R(4), 99);
  b.halt();
  Program p = b.take();
  EXPECT_TRUE(verify(p).empty());
  // entry, then, else, join
  EXPECT_EQ(p.num_blocks(), 4u);
}

TEST(Builder, NestedIfInsideLoop) {
  IrBuilder b("nested");
  b.for_range(R(1), 0, 3, [&] {
    b.if_then(Cond::kEq, R(1), R(2), [&] { b.nop(); });
  });
  b.halt();
  EXPECT_TRUE(verify(b.take()).empty());
}

TEST(Builder, BreakLoopPatchesExit) {
  IrBuilder b("brk");
  b.for_range(R(1), 0, 10, [&] {
    b.if_then(Cond::kEq, R(1), R(2), [&] { b.break_loop(); });
  });
  b.movi(R(5), 1);
  b.halt();
  Program p = b.take();
  EXPECT_TRUE(verify(p).empty());
}

TEST(Builder, BreakOutsideLoopThrows) {
  IrBuilder b("bad");
  EXPECT_THROW(b.break_loop(), InvalidArgument);
}

TEST(Builder, EmitAfterHaltThrows) {
  IrBuilder b("afterhalt");
  b.halt();
  EXPECT_THROW(b.nop(), InvalidArgument);
}

TEST(Builder, TakeWithoutHaltThrows) {
  IrBuilder b("nohalt");
  b.movi(R(1), 1);
  EXPECT_THROW(b.take(), InvalidArgument);
}

TEST(Builder, SwitchOnLowersToCascade) {
  IrBuilder b("sw");
  b.movi(R(1), 2);
  b.switch_on(R(1),
              {{0, [&] { b.movi(R(2), 100); }},
               {1, [&] { b.movi(R(2), 200); }},
               {2, [&] { b.movi(R(2), 300); }}},
              [&] { b.movi(R(2), -1); });
  b.halt();
  Program p = b.take();
  EXPECT_TRUE(verify(p).empty());
  EXPECT_GE(p.num_blocks(), 7u);  // 3 tests + 3 cases + join at least
}

TEST(Builder, WhileLoopWithRegisterCondition) {
  IrBuilder b("wl");
  b.movi(R(1), 0);
  b.movi(R(2), 5);
  b.while_loop(
      6, [&] { return IrBuilder::LoopCond{Cond::kLt, R(1), R(2)}; },
      [&] { b.addi(R(1), R(1), 1); });
  b.halt();
  EXPECT_TRUE(verify(b.take()).empty());
}

TEST(Builder, DoWhileRejectsTerminatedBody) {
  IrBuilder b("dw");
  EXPECT_THROW(
      b.do_while(3, [&] { b.halt(); }, Cond::kLt, R(1), R(2)),
      InvalidArgument);
}

TEST(Verify, CatchesBranchArityMismatch) {
  Program p("bad");
  const BlockId bb = p.add_block("entry");
  p.set_entry(bb);
  Instruction br;
  br.op = Opcode::kBranch;
  p.append(bb, br);
  p.block(bb).succs = {bb};  // branch needs 2 successors
  const auto problems = verify(p);
  EXPECT_FALSE(problems.empty());
}

TEST(Verify, CatchesEmptyBlockAndMissingHalt) {
  Program p("bad2");
  const BlockId bb = p.add_block("entry");
  p.set_entry(bb);
  EXPECT_FALSE(verify(p).empty());
}

TEST(Verify, CatchesMissingLoopBound) {
  Program p("noloopbound");
  const BlockId a = p.add_block("entry");
  const BlockId h = p.add_block("header");
  const BlockId x = p.add_block("exit");
  p.set_entry(a);
  Instruction nop;
  nop.op = Opcode::kNop;
  p.append(a, nop);
  p.block(a).succs = {h};
  Instruction br;
  br.op = Opcode::kBranchImm;
  br.rs1 = 1;
  br.imm = 3;
  br.cond = Cond::kGe;
  p.append(h, br);
  p.block(h).succs = {x, h};  // self loop, no bound annotated
  Instruction halt;
  halt.op = Opcode::kHalt;
  p.append(x, halt);
  const auto problems = verify(p);
  ASSERT_FALSE(problems.empty());
  bool mentions_bound = false;
  for (const auto& s : problems)
    if (s.find("loop bound") != std::string::npos) mentions_bound = true;
  EXPECT_TRUE(mentions_bound);
}

TEST(Verify, CatchesBadRegister) {
  Program p("badreg");
  const BlockId bb = p.add_block("entry");
  p.set_entry(bb);
  Instruction in;
  in.op = Opcode::kMovImm;
  in.rd = 40;  // out of range
  p.append(bb, in);
  Instruction halt;
  halt.op = Opcode::kHalt;
  p.append(bb, halt);
  EXPECT_FALSE(verify(p).empty());
  EXPECT_THROW(verify_or_throw(p), InvalidArgument);
}

// Structured diagnostics: each issue names the offending block, instruction
// or successor slot, and carries a stable code the fuzz triage dispatches on.
TEST(VerifyIssues, BranchArityNamesTheBlock) {
  Program p("bad");
  const BlockId bb = p.add_block("entry");
  p.set_entry(bb);
  Instruction br;
  br.op = Opcode::kBranch;
  p.append(bb, br);
  p.block(bb).succs = {bb};
  const auto issues = verify_issues(p);
  ASSERT_FALSE(issues.empty());
  bool found = false;
  for (const auto& issue : issues)
    if (issue.code == VerifyCode::kBranchArity) {
      found = true;
      EXPECT_EQ(issue.block, bb);
      EXPECT_NE(issue.message.find(verify_code_name(issue.code)),
                std::string::npos);
    }
  EXPECT_TRUE(found);
}

TEST(VerifyIssues, BadRegisterNamesTheInstruction) {
  Program p("badreg");
  const BlockId bb = p.add_block("entry");
  p.set_entry(bb);
  Instruction in;
  in.op = Opcode::kMovImm;
  in.rd = 40;
  const InstrId bad = p.append(bb, in);
  Instruction halt;
  halt.op = Opcode::kHalt;
  p.append(bb, halt);
  const auto issues = verify_issues(p);
  ASSERT_FALSE(issues.empty());
  bool found = false;
  for (const auto& issue : issues)
    if (issue.code == VerifyCode::kBadDestRegister) {
      found = true;
      EXPECT_EQ(issue.block, bb);
      EXPECT_EQ(issue.instr, bad);
    }
  EXPECT_TRUE(found);
}

TEST(VerifyIssues, SuccessorOutOfRangeNamesTheEdgeSlot) {
  Program p("badsucc");
  const BlockId bb = p.add_block("entry");
  p.set_entry(bb);
  Instruction jump;
  jump.op = Opcode::kJump;
  p.append(bb, jump);
  p.block(bb).succs = {static_cast<BlockId>(99)};
  const auto issues = verify_issues(p);
  bool found = false;
  for (const auto& issue : issues)
    if (issue.code == VerifyCode::kSuccessorOutOfRange) {
      found = true;
      EXPECT_EQ(issue.block, bb);
      EXPECT_EQ(issue.succ_index, 0);
    }
  EXPECT_TRUE(found);
}

TEST(VerifyIssues, MissingEntryAndEmptyBlockHaveDistinctCodes) {
  Program none("empty");
  const auto no_entry = verify_issues(none);
  ASSERT_FALSE(no_entry.empty());
  EXPECT_EQ(no_entry.front().code, VerifyCode::kNoEntry);

  Program p("emptyblock");
  const BlockId bb = p.add_block("entry");
  p.set_entry(bb);
  const auto issues = verify_issues(p);
  bool empty_block = false;
  for (const auto& issue : issues)
    if (issue.code == VerifyCode::kEmptyBlock && issue.block == bb)
      empty_block = true;
  EXPECT_TRUE(empty_block);
}

TEST(VerifyIssues, EveryCodeHasAStableName) {
  for (int c = 0; c <= static_cast<int>(VerifyCode::kLoopAnalysisFailed);
       ++c) {
    const char* name = verify_code_name(static_cast<VerifyCode>(c));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
}

TEST(Layout, AddressesAreSequential) {
  Program p = straight_line();
  const Layout layout(p, 16);
  const auto& instrs = p.block(p.entry()).instrs;
  EXPECT_EQ(layout.address(instrs[0].id), 0u);
  EXPECT_EQ(layout.address(instrs[1].id), 4u);
  EXPECT_EQ(layout.address(instrs[2].id), 8u);
  EXPECT_EQ(layout.code_bytes(), 12u);
  EXPECT_EQ(layout.num_mem_blocks(), 1u);
}

TEST(Layout, MemBlockMapping) {
  Program p("blocks");
  const BlockId bb = p.add_block("entry");
  p.set_entry(bb);
  for (int i = 0; i < 7; ++i) {
    Instruction nop;
    nop.op = Opcode::kNop;
    p.append(bb, nop);
  }
  Instruction halt;
  halt.op = Opcode::kHalt;
  p.append(bb, halt);

  const Layout layout(p, 16);  // 4 instructions per block
  EXPECT_EQ(layout.mem_block(p.block(bb).instrs[0].id), 0u);
  EXPECT_EQ(layout.mem_block(p.block(bb).instrs[3].id), 0u);
  EXPECT_EQ(layout.mem_block(p.block(bb).instrs[4].id), 1u);
  EXPECT_EQ(layout.num_mem_blocks(), 2u);
}

TEST(Layout, InsertionShiftsDownstreamOnly) {
  IrBuilder b("shift");
  b.movi(R(1), 1);
  b.movi(R(2), 2);
  b.movi(R(3), 3);
  b.halt();
  Program p = b.take();
  const auto& instrs = p.block(p.entry()).instrs;
  const InstrId i0 = instrs[0].id, i2 = instrs[2].id;

  const Layout before(p, 16);
  const std::uint32_t a0 = before.address(i0);
  const std::uint32_t a2 = before.address(i2);

  Instruction nop;
  nop.op = Opcode::kNop;
  p.insert(p.entry(), 1, nop);
  const Layout after(p, 16);
  EXPECT_EQ(after.address(i0), a0);           // upstream untouched
  EXPECT_EQ(after.address(i2), a2 + kInstrBytes);  // downstream shifted
}

TEST(Layout, RejectsBadGeometry) {
  Program p = straight_line();
  EXPECT_THROW(Layout(p, 12), InvalidArgument);  // not a power of two
  EXPECT_THROW(Layout(p, 2), InvalidArgument);   // smaller than instruction
  EXPECT_THROW(Layout(p, 16, 8), InvalidArgument);  // unaligned base
}

TEST(Dominators, DiamondDominance) {
  IrBuilder b("diamond");
  b.movi(R(1), 0);
  b.if_then_else(Cond::kEq, R(1), R(2), [&] { b.nop(); }, [&] { b.nop(); });
  b.halt();
  Program p = b.take();
  const DominatorTree dom(p);
  // Entry dominates everything; branch targets do not dominate the join.
  for (const BasicBlock& bb : p.blocks()) {
    if (dom.reachable(bb.id)) {
      EXPECT_TRUE(dom.dominates(p.entry(), bb.id));
    }
  }
  EXPECT_TRUE(dom.dominates(p.entry(), p.entry()));
}

TEST(Dominators, LoopDetection) {
  IrBuilder b("twoloop");
  b.for_range(R(1), 0, 3, [&] {
    b.for_range(R(2), 0, 4, [&] { b.nop(); });
  });
  b.halt();
  Program p = b.take();
  const auto loops = loops_outermost_first(p);
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_GT(loops[0].blocks.size(), loops[1].blocks.size());
  // The outer loop directly contains the inner loop's header.
  ASSERT_EQ(loops[0].sub_headers.size(), 1u);
  EXPECT_EQ(loops[0].sub_headers[0], loops[1].header);
}

TEST(Lower, PreservesBlockStructure) {
  IrBuilder b("low");
  b.movi(R(1), 100000);  // needs a movw/movt pair
  b.load(R(2), R(1), 5);
  b.store(R(1), 7, R(2));
  b.for_range(R(3), 0, 4, [&] { b.load(R(4), R(3), 0); });
  b.halt();
  Program p = b.take();
  Program low = lower(p);
  EXPECT_TRUE(verify(low).empty());
  EXPECT_EQ(low.num_blocks(), p.num_blocks());
  EXPECT_GT(low.instruction_count(), p.instruction_count());
  for (const auto& [header, bound] : p.loop_bounds())
    EXPECT_EQ(low.loop_bound(header), bound);
}

TEST(Lower, EveryAccessGainsAddressGeneration) {
  IrBuilder b("zero");
  b.load(R(1), R(2), 0);
  b.halt();
  Program p = b.take();
  // load -> addi + load; halt unchanged.
  EXPECT_EQ(lower(p).instruction_count(), p.instruction_count() + 1);
}

TEST(Lower, SmallImmediatesStaySingleWideOnesPair) {
  IrBuilder b("smallimm");
  b.movi(R(1), -5);      // 8-bit immediate: single instruction
  b.movi(R(2), 65535);   // wide: movw/movt-style pair
  b.halt();
  Program p = b.take();
  EXPECT_EQ(lower(p).instruction_count(), p.instruction_count() + 1);
}

TEST(Lower, RejectsReservedRegisters) {
  Program p("scratch");
  const BlockId bb = p.add_block("entry");
  p.set_entry(bb);
  Instruction in;
  in.op = Opcode::kMov;
  in.rd = kScratchReg;
  in.rs1 = 1;
  p.append(bb, in);
  Instruction halt;
  halt.op = Opcode::kHalt;
  p.append(bb, halt);
  EXPECT_THROW(lower(p), InvalidArgument);
}

TEST(Dot, EmitsAllBlocks) {
  IrBuilder b("dotty");
  b.for_range(R(1), 0, 2, [&] { b.nop(); });
  b.halt();
  Program p = b.take();
  const std::string dot = to_dot(p);
  for (const BasicBlock& bb : p.blocks()) {
    EXPECT_NE(dot.find("bb" + std::to_string(bb.id)), std::string::npos);
  }
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(ReversePostOrder, HeaderBeforeBody) {
  IrBuilder b("rpo");
  b.for_range(R(1), 0, 2, [&] { b.nop(); });
  b.halt();
  Program p = b.take();
  const auto rpo = p.reverse_post_order();
  EXPECT_EQ(rpo.front(), p.entry());
  EXPECT_EQ(rpo.size(), p.num_blocks());
  std::set<BlockId> seen(rpo.begin(), rpo.end());
  EXPECT_EQ(seen.size(), rpo.size());
}

}  // namespace
}  // namespace ucp::ir
