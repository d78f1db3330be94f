#include <gtest/gtest.h>

#include "cache/cache_sim.hpp"
#include "ir/builder.hpp"
#include "ir/dominators.hpp"
#include "ir/layout.hpp"
#include "sim/interpreter.hpp"
#include "support/check.hpp"

namespace ucp::sim {
namespace {

using ir::Cond;
using ir::IrBuilder;
using ir::R;

const cache::CacheConfig kConfig{2, 16, 256};
const cache::MemTiming kTiming{1, 25, 25};

struct RunResult {
  RunMetrics metrics;
  std::vector<std::int64_t> regs;
  std::vector<std::int64_t> data;
};

RunResult run(const ir::Program& p) {
  const ir::Layout layout(p, kConfig.block_bytes);
  cache::CacheSim cache(kConfig, kTiming);
  Interpreter interp(p, layout, cache);
  RunResult r;
  r.metrics = interp.run();
  for (std::uint8_t i = 0; i < ir::kNumRegs; ++i) r.regs.push_back(interp.reg(i));
  r.data = interp.data();
  return r;
}

TEST(ExecCycles, PerOpcodeCosts) {
  EXPECT_EQ(exec_cycles(ir::Opcode::kAdd), 1u);
  EXPECT_EQ(exec_cycles(ir::Opcode::kMul), 3u);
  EXPECT_EQ(exec_cycles(ir::Opcode::kDiv), 12u);
  EXPECT_EQ(exec_cycles(ir::Opcode::kLoad), 2u);
  EXPECT_EQ(exec_cycles(ir::Opcode::kPrefetch), 1u);
}

TEST(Interpreter, ArithmeticSemantics) {
  IrBuilder b("arith");
  b.movi(R(1), 7);
  b.movi(R(2), 3);
  b.add(R(3), R(1), R(2));
  b.sub(R(4), R(1), R(2));
  b.mul(R(5), R(1), R(2));
  b.div(R(6), R(1), R(2));
  b.rem(R(7), R(1), R(2));
  b.and_(R(8), R(1), R(2));
  b.or_(R(9), R(1), R(2));
  b.xor_(R(10), R(1), R(2));
  b.shl(R(11), R(1), R(2));
  b.shr(R(12), R(1), R(2));
  b.halt();
  ir::Program p = b.take();
  const RunResult r = run(p);
  EXPECT_EQ(r.regs[3], 10);
  EXPECT_EQ(r.regs[4], 4);
  EXPECT_EQ(r.regs[5], 21);
  EXPECT_EQ(r.regs[6], 2);
  EXPECT_EQ(r.regs[7], 1);
  EXPECT_EQ(r.regs[8], 3);
  EXPECT_EQ(r.regs[9], 7);
  EXPECT_EQ(r.regs[10], 4);
  EXPECT_EQ(r.regs[11], 56);
  EXPECT_EQ(r.regs[12], 0);
}

TEST(Interpreter, SarIsArithmetic) {
  IrBuilder b("sar");
  b.movi(R(1), -16);
  b.movi(R(2), 2);
  b.sar(R(3), R(1), R(2));
  b.shr(R(4), R(1), R(2));
  b.halt();
  ir::Program p = b.take();
  const RunResult r = run(p);
  EXPECT_EQ(r.regs[3], -4);
  EXPECT_GT(r.regs[4], 0);  // logical shift of negative is huge positive
}

TEST(Interpreter, LoadStoreRoundTrip) {
  IrBuilder b("mem");
  b.movi(R(1), 5);
  b.movi(R(2), 1234);
  b.store(R(1), 3, R(2));  // data[8] = 1234
  b.load(R(3), R(1), 3);
  b.halt();
  ir::Program p = b.take();
  const RunResult r = run(p);
  EXPECT_EQ(r.regs[3], 1234);
  EXPECT_EQ(r.data[8], 1234);
}

TEST(Interpreter, InitialDataImageLoaded) {
  IrBuilder b("image");
  b.load(R(1), R(0), 2);
  b.halt();
  b.set_data({10, 20, 30});
  ir::Program p = b.take();
  const RunResult r = run(p);
  EXPECT_EQ(r.regs[1], 30);
}

TEST(Interpreter, BranchBothWays) {
  IrBuilder b("branchy");
  b.movi(R(1), 5);
  b.if_then_else(
      Cond::kGt, R(1), R(0), [&] { b.movi(R(2), 1); },
      [&] { b.movi(R(2), 2); });
  b.if_then_else(
      Cond::kLt, R(1), R(0), [&] { b.movi(R(3), 1); },
      [&] { b.movi(R(3), 2); });
  b.halt();
  ir::Program p = b.take();
  const RunResult r = run(p);
  EXPECT_EQ(r.regs[2], 1);
  EXPECT_EQ(r.regs[3], 2);
}

TEST(Interpreter, LoopExecutesExactTripCount) {
  IrBuilder b("loop");
  b.movi(R(2), 0);
  b.for_range(R(1), 0, 10, [&] { b.addi(R(2), R(2), 3); });
  b.halt();
  ir::Program p = b.take();
  const RunResult rr = run(p);
  const RunMetrics& m = rr.metrics;
  EXPECT_EQ(rr.regs[2], 30);
  EXPECT_GT(m.instructions, 30u);
  EXPECT_GT(m.total_cycles, m.mem_cycles);
}

TEST(Interpreter, DivisionByZeroThrows) {
  IrBuilder b("divzero");
  b.movi(R(1), 1);
  b.div(R(2), R(1), R(0));
  b.halt();
  ir::Program p = b.take();
  EXPECT_THROW(run(p), InvalidArgument);
}

TEST(Interpreter, DataOutOfBoundsThrows) {
  IrBuilder b("oob");
  b.movi(R(1), -1);
  b.load(R(2), R(1), 0);
  b.halt();
  ir::Program p = b.take();
  EXPECT_THROW(run(p), InvalidArgument);
}

TEST(Interpreter, DataMemoryGrowsOnDemandWithinItsBound) {
  // The last word of the data memory is addressable without the run ever
  // holding all of it; an unwritten word reads 0; one past the end throws.
  const std::int64_t last = static_cast<std::int64_t>(RunLimits{}.data_words) - 1;
  IrBuilder b("sparse");
  b.movi(R(1), last);
  b.load(R(2), R(1), 0);  // never written: 0
  b.movi(R(3), 77);
  b.store(R(1), 0, R(3));
  b.load(R(4), R(1), 0);
  b.load(R(5), R(0), 40);  // below the highest store, never written: 0
  b.halt();
  b.set_data({10, 20});
  const RunResult r = run(b.take());
  EXPECT_EQ(r.regs[2], 0);
  EXPECT_EQ(r.regs[4], 77);
  EXPECT_EQ(r.regs[5], 0);
  ASSERT_EQ(r.data.size(), static_cast<std::size_t>(last) + 1);
  EXPECT_EQ(r.data.front(), 10);
  EXPECT_EQ(r.data[40], 0);
  EXPECT_EQ(r.data.back(), 77);

  IrBuilder past("past_end");
  past.movi(R(1), last + 1);
  past.store(R(1), 0, R(0));
  past.halt();
  EXPECT_THROW(run(past.take()), InvalidArgument);

  // A run that stores nothing keeps exactly its image.
  IrBuilder quiet("quiet");
  quiet.load(R(1), R(0), 1);
  quiet.halt();
  quiet.set_data({10, 20});
  EXPECT_EQ(run(quiet.take()).data, (std::vector<std::int64_t>{10, 20}));
}

TEST(Interpreter, StepLimitGuardsInfiniteLoops) {
  IrBuilder b("forever");
  // Structurally bounded loop (bound 3) whose body resets the counter:
  // the flow-fact validator must reject the run.
  b.for_range(R(1), 0, 2, [&] { b.movi(R(1), 0); });
  b.halt();
  ir::Program p = b.take();
  EXPECT_THROW(run(p), InvalidArgument);
}

TEST(Interpreter, LoopBoundViolationDetected) {
  // A while loop annotated with a bound smaller than reality.
  IrBuilder b("lied");
  b.movi(R(1), 0);
  b.movi(R(2), 10);
  b.while_loop(
      3,  // actual trips: 10 > 3
      [&] { return IrBuilder::LoopCond{Cond::kLt, R(1), R(2)}; },
      [&] { b.addi(R(1), R(1), 1); });
  b.halt();
  ir::Program p = b.take();
  EXPECT_THROW(run(p), InvalidArgument);
}

TEST(InterpreterChecked, StepBudgetComesBackAsStatus) {
  // A structurally *bounded* loop whose bound vastly exceeds the step
  // budget: the run must stop within the budget and report it on the
  // Status channel instead of hanging or throwing.
  IrBuilder b("longloop");
  b.for_range(R(1), 0, 50'000'000, [&] { b.addi(R(2), R(2), 1); });
  b.halt();
  ir::Program p = b.take();
  RunLimits limits;
  limits.max_steps = 500;
  const Expected<RunMetrics> r =
      run_program_checked(p, kConfig, kTiming, limits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kStepBudgetExhausted);
  EXPECT_NE(r.status().message().find("step"), std::string::npos);
}

TEST(InterpreterChecked, LoopBoundViolationComesBackAsStatus) {
  IrBuilder b("lied2");
  b.movi(R(1), 0);
  b.movi(R(2), 10);
  b.while_loop(
      3,  // actual trips: 10 > 3
      [&] { return IrBuilder::LoopCond{Cond::kLt, R(1), R(2)}; },
      [&] { b.addi(R(1), R(1), 1); });
  b.halt();
  ir::Program p = b.take();
  const Expected<RunMetrics> r = run_program_checked(p, kConfig, kTiming);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kLoopBoundViolated);
  // Loops handed in (outermost first, as a context graph holds them) check
  // the same bounds.
  const Expected<RunMetrics> given = run_program_checked(
      p, ir::loops_outermost_first(p), kConfig, kTiming);
  ASSERT_FALSE(given.ok());
  EXPECT_EQ(given.code(), ErrorCode::kLoopBoundViolated);
}

TEST(InterpreterChecked, HealthyRunMatchesThrowingRun) {
  IrBuilder b("healthy");
  b.for_range(R(1), 0, 8, [&] { b.addi(R(2), R(2), 1); });
  b.halt();
  ir::Program p = b.take();
  const RunResult plain = run(p);
  const Expected<RunMetrics> checked = run_program_checked(p, kConfig, kTiming);
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(checked->instructions, plain.metrics.instructions);
  EXPECT_EQ(checked->total_cycles, plain.metrics.total_cycles);
  EXPECT_EQ(checked->mem_cycles, plain.metrics.mem_cycles);
  const Expected<RunMetrics> given = run_program_checked(
      p, ir::loops_outermost_first(p), kConfig, kTiming);
  ASSERT_TRUE(given.ok());
  EXPECT_EQ(given->instructions, plain.metrics.instructions);
  EXPECT_EQ(given->mem_cycles, plain.metrics.mem_cycles);
}

TEST(Interpreter, MemCyclesMatchCacheModel) {
  IrBuilder b("cycles");
  b.movi(R(1), 1);
  b.movi(R(2), 2);
  b.halt();
  ir::Program p = b.take();
  const RunMetrics m = run(p).metrics;
  // 3 instructions in one 16-byte block: 1 miss + 2 hits.
  EXPECT_EQ(m.instructions, 3u);
  EXPECT_EQ(m.cache.misses, 1u);
  EXPECT_EQ(m.cache.hits, 2u);
  EXPECT_EQ(m.mem_cycles, 25u + 1u + 1u);
}

TEST(Interpreter, PrefetchChangesTiming) {
  // Block 1 (instructions 4..7) prefetched from block 0 early enough: the
  // fall-through fetch of block 1 must not pay the full miss.
  IrBuilder b("pf");
  for (int i = 0; i < 8; ++i) b.nop();
  b.halt();
  ir::Program p = b.take();
  const ir::InstrId target = p.block(p.entry()).instrs[4].id;

  // Baseline: 9 instructions span 3 blocks -> 3 cold misses.
  const RunMetrics base = run(p).metrics;
  EXPECT_EQ(base.cache.misses, 3u);

  ir::Instruction pf;
  pf.op = ir::Opcode::kPrefetch;
  pf.pf_target = target;
  p.insert(p.entry(), 0, pf);
  const RunMetrics with_pf = run(p).metrics;
  // The demand fetch of the target block is now a (late) prefetch hit.
  EXPECT_EQ(with_pf.cache.misses, 2u);  // the other two blocks stay cold
  EXPECT_EQ(with_pf.cache.prefetches_issued, 1u);
  EXPECT_GE(with_pf.cache.useful_prefetch_hits, 1u);
}

TEST(Interpreter, TraceHookSeesEveryFetch) {
  IrBuilder b("trace");
  b.movi(R(1), 1);
  b.movi(R(2), 2);
  b.halt();
  ir::Program p = b.take();
  const ir::Layout layout(p, kConfig.block_bytes);
  cache::CacheSim cache(kConfig, kTiming);
  Interpreter interp(p, layout, cache);
  std::vector<std::uint32_t> addresses;
  interp.set_trace_hook([&](const ir::Instruction&, std::uint32_t addr,
                            const cache::FetchResult&) {
    addresses.push_back(addr);
  });
  const RunMetrics m = interp.run();
  EXPECT_EQ(addresses.size(), m.instructions);
  EXPECT_EQ(addresses[0], 0u);
  EXPECT_EQ(addresses[1], 4u);
}

TEST(Interpreter, RunProgramConvenience) {
  IrBuilder b("conv");
  b.movi(R(1), 1);
  b.halt();
  const RunMetrics m = run_program(b.take(), kConfig, kTiming);
  EXPECT_EQ(m.instructions, 2u);
}

TEST(Interpreter, DeterministicAcrossRuns) {
  IrBuilder b("det");
  b.movi(R(2), 0);
  b.for_range(R(1), 0, 50, [&] {
    b.mul(R(3), R(1), R(1));
    b.add(R(2), R(2), R(3));
    b.store(R(1), 0, R(2));
  });
  b.halt();
  ir::Program p = b.take();
  const RunMetrics a = run_program(p, kConfig, kTiming);
  const RunMetrics c = run_program(p, kConfig, kTiming);
  EXPECT_EQ(a.total_cycles, c.total_cycles);
  EXPECT_EQ(a.mem_cycles, c.mem_cycles);
  EXPECT_EQ(a.instructions, c.instructions);
  EXPECT_EQ(a.cache.misses, c.cache.misses);
}

}  // namespace
}  // namespace ucp::sim
