#include "sim/interpreter.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/cancellation.hpp"
#include "support/check.hpp"
#include "support/checked.hpp"
#include "support/fault_injection.hpp"

namespace ucp::sim {

std::uint32_t exec_cycles(ir::Opcode op) {
  using ir::Opcode;
  switch (op) {
    case Opcode::kMul:
      return 3;
    case Opcode::kDiv:
    case Opcode::kRem:
      return 12;
    case Opcode::kLoad:
    case Opcode::kStore:
      return 2;  // data scratchpad; the I-cache is the paper's only target
    default:
      return 1;
  }
}

Interpreter::Interpreter(const ir::Program& program, const ir::Layout& layout,
                         cache::CacheSim& cache, RunLimits limits)
    : Interpreter(program, layout, cache, ir::find_natural_loops(program),
                  limits) {}

Interpreter::Interpreter(const ir::Program& program, const ir::Layout& layout,
                         cache::CacheSim& cache,
                         const std::vector<ir::NaturalLoop>& loops,
                         RunLimits limits)
    : program_(program),
      layout_(layout),
      cache_(cache),
      limits_(limits),
      regs_(ir::kNumRegs, 0) {
  const auto& init = program_.data();
  UCP_REQUIRE(init.size() <= limits_.data_words,
              "initial data image exceeds the data memory size");
  // Data memory grows on demand: the image, then up to the highest word
  // stored. A run that touches a few words does not zero-fill all
  // `data_words` of them.
  data_ = init;

  header_index_.assign(program_.num_blocks(), -1);
  for (const ir::NaturalLoop& loop : loops) {
    LoopCheck check;
    check.header = loop.header;
    check.bound = program_.loop_bound(loop.header);
    check.member.assign(program_.num_blocks(), false);
    for (ir::BlockId b : loop.blocks) check.member[b] = true;
    header_index_[loop.header] = static_cast<std::int32_t>(loop_checks_.size());
    loop_checks_.push_back(std::move(check));
  }
}

std::int64_t Interpreter::reg(std::uint8_t index) const {
  UCP_REQUIRE(index < ir::kNumRegs, "register index out of range");
  return regs_[index];
}

std::int64_t& Interpreter::reg_ref(std::uint8_t index) {
  UCP_CHECK(index < ir::kNumRegs);
  return regs_[index];
}

std::int64_t Interpreter::data_at(std::int64_t address) const {
  UCP_REQUIRE(address >= 0 &&
                  static_cast<std::uint64_t>(address) < limits_.data_words,
              "data load out of bounds");
  const auto word = static_cast<std::size_t>(address);
  return word < data_.size() ? data_[word] : 0;
}

void Interpreter::data_set(std::int64_t address, std::int64_t value) {
  UCP_REQUIRE(address >= 0 &&
                  static_cast<std::uint64_t>(address) < limits_.data_words,
              "data store out of bounds");
  const auto word = static_cast<std::size_t>(address);
  if (word >= data_.size()) data_.resize(word + 1, 0);
  data_[word] = value;
}

std::uint32_t Interpreter::execute(const ir::Instruction& in,
                                   std::uint64_t now) {
  using ir::Opcode;
  switch (in.op) {
    case Opcode::kMovImm:
      reg_ref(in.rd) = in.imm;
      break;
    case Opcode::kMov:
      reg_ref(in.rd) = regs_[in.rs1];
      break;
    case Opcode::kAdd:
      reg_ref(in.rd) = regs_[in.rs1] + regs_[in.rs2];
      break;
    case Opcode::kAddImm:
      reg_ref(in.rd) = regs_[in.rs1] + in.imm;
      break;
    case Opcode::kSub:
      reg_ref(in.rd) = regs_[in.rs1] - regs_[in.rs2];
      break;
    case Opcode::kMul:
      reg_ref(in.rd) = regs_[in.rs1] * regs_[in.rs2];
      break;
    case Opcode::kDiv:
      UCP_REQUIRE(regs_[in.rs2] != 0, "division by zero");
      reg_ref(in.rd) = regs_[in.rs1] / regs_[in.rs2];
      break;
    case Opcode::kRem:
      UCP_REQUIRE(regs_[in.rs2] != 0, "remainder by zero");
      reg_ref(in.rd) = regs_[in.rs1] % regs_[in.rs2];
      break;
    case Opcode::kAnd:
      reg_ref(in.rd) = regs_[in.rs1] & regs_[in.rs2];
      break;
    case Opcode::kOr:
      reg_ref(in.rd) = regs_[in.rs1] | regs_[in.rs2];
      break;
    case Opcode::kXor:
      reg_ref(in.rd) = regs_[in.rs1] ^ regs_[in.rs2];
      break;
    case Opcode::kShl:
      reg_ref(in.rd) = regs_[in.rs1] << (regs_[in.rs2] & 63);
      break;
    case Opcode::kShr:
      reg_ref(in.rd) = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(regs_[in.rs1]) >> (regs_[in.rs2] & 63));
      break;
    case Opcode::kSar:
      reg_ref(in.rd) = regs_[in.rs1] >> (regs_[in.rs2] & 63);
      break;
    case Opcode::kLoad:
      reg_ref(in.rd) = data_at(regs_[in.rs1] + in.imm);
      break;
    case Opcode::kStore:
      data_set(regs_[in.rs1] + in.imm, regs_[in.rs2]);
      break;
    case Opcode::kPrefetch:
      cache_.prefetch(layout_.mem_block(in.pf_target), now);
      break;
    case Opcode::kNop:
    case Opcode::kBranch:
    case Opcode::kBranchImm:
    case Opcode::kJump:
    case Opcode::kHalt:
      break;
  }
  return exec_cycles(in.op);
}

RunMetrics Interpreter::run() {
  Expected<RunMetrics> result = try_run();
  if (!result.ok()) throw InvalidArgument(result.status().message());
  return std::move(result).value();
}

Expected<RunMetrics> Interpreter::try_run() {
  obs::Span span("sim.interp.run");
  RunMetrics metrics;
  std::uint64_t now = 0;

  // One registry publish per run on any exit (the interpreter's per-
  // instruction loop must stay free of shared atomics).
  struct RunPublisher {
    const RunMetrics& metrics;
    ~RunPublisher() {
      if (!obs::enabled()) return;
      static obs::Counter& c_runs = obs::registry().counter("sim.interp.runs");
      static obs::Counter& c_instr =
          obs::registry().counter("sim.interp.instructions");
      static obs::Counter& c_mem =
          obs::registry().counter("sim.interp.mem_cycles");
      static obs::Counter& c_pf =
          obs::registry().counter("sim.interp.prefetch_instructions");
      c_runs.increment();
      c_instr.add(metrics.instructions);
      c_mem.add(metrics.mem_cycles);
      c_pf.add(metrics.prefetch_instructions);
    }
  } publisher{metrics};

  ir::BlockId current = program_.entry();
  ir::BlockId previous = ir::kInvalidBlock;

  for (;;) {
    // Flow-fact validation at loop headers.
    if (header_index_[current] >= 0) {
      LoopCheck& check = loop_checks_[static_cast<std::size_t>(
          header_index_[current])];
      const bool from_inside =
          previous != ir::kInvalidBlock && check.member[previous];
      check.count = from_inside ? check.count + 1 : 1;
      if (check.count > check.bound) {
        return Status(ErrorCode::kLoopBoundViolated,
                      "loop bound violated at header bb" +
                          std::to_string(current) + " of program '" +
                          program_.name() + "'");
      }
    }

    const ir::BasicBlock& bb = program_.block(current);
    bool halted = false;
    ir::BlockId next = ir::kInvalidBlock;

    for (const ir::Instruction& in : bb.instrs) {
      if (metrics.instructions >= limits_.max_steps ||
          UCP_FAULT_POINT("sim.step")) {
        return Status(ErrorCode::kStepBudgetExhausted,
                      "dynamic instruction budget (" +
                          std::to_string(limits_.max_steps) +
                          ") exhausted in program '" + program_.name() +
                          "' (missing halt?)");
      }
      // Watchdog poll on the Status channel (every 4096 instructions): a
      // cancelled run returns cleanly instead of burning its step budget.
      if ((metrics.instructions & 0xFFF) == 0 && cancellation_requested()) {
        return Status(ErrorCode::kCancelled,
                      "simulation of '" + program_.name() +
                          "' cancelled by the supervisor");
      }
      const std::uint32_t address = layout_.address(in.id);
      const cache::FetchResult fetch =
          cache_.fetch(layout_.block_of_address(address), now);
      now = checked_add(now, fetch.cycles, "sim cycle clock");
      metrics.mem_cycles =
          checked_add(metrics.mem_cycles, fetch.cycles, "sim mem cycles");
      if (trace_) trace_(in, address, fetch);

      now = checked_add(now, execute(in, now), "sim cycle clock");
      ++metrics.instructions;
      if (in.op == ir::Opcode::kPrefetch) ++metrics.prefetch_instructions;

      switch (in.op) {
        case ir::Opcode::kBranch:
          next = ir::eval_cond(in.cond, regs_[in.rs1], regs_[in.rs2])
                     ? bb.succs[0]
                     : bb.succs[1];
          break;
        case ir::Opcode::kBranchImm:
          next = ir::eval_cond(in.cond, regs_[in.rs1], in.imm) ? bb.succs[0]
                                                               : bb.succs[1];
          break;
        case ir::Opcode::kJump:
          next = bb.succs[0];
          break;
        case ir::Opcode::kHalt:
          halted = true;
          break;
        default:
          break;
      }
    }

    if (halted) break;
    if (next == ir::kInvalidBlock) {
      UCP_CHECK_MSG(bb.succs.size() == 1, "fallthrough without successor");
      next = bb.succs[0];
    }
    previous = current;
    current = next;
  }

  metrics.total_cycles = now;
  metrics.cache = cache_.stats();
  return metrics;
}

RunMetrics run_program(const ir::Program& program,
                       const cache::CacheConfig& config,
                       const cache::MemTiming& timing, RunLimits limits) {
  const ir::Layout layout(program, config.block_bytes);
  cache::CacheSim cache(config, timing);
  Interpreter interp(program, layout, cache, limits);
  return interp.run();
}

Expected<RunMetrics> run_program_checked(const ir::Program& program,
                                         const cache::CacheConfig& config,
                                         const cache::MemTiming& timing,
                                         RunLimits limits) {
  return run_program_checked(program, ir::find_natural_loops(program), config,
                             timing, limits);
}

Expected<RunMetrics> run_program_checked(
    const ir::Program& program, const std::vector<ir::NaturalLoop>& loops,
    const cache::CacheConfig& config, const cache::MemTiming& timing,
    RunLimits limits) {
  const ir::Layout layout(program, config.block_bytes);
  cache::CacheSim cache(config, timing);
  Interpreter interp(program, layout, cache, loops, limits);
  return interp.try_run();
}

}  // namespace ucp::sim
