#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/cache_sim.hpp"
#include "ir/dominators.hpp"
#include "ir/layout.hpp"
#include "ir/program.hpp"
#include "support/status.hpp"

namespace ucp::sim {

/// Per-opcode execute stage cost in cycles (fetch cost comes from the cache).
std::uint32_t exec_cycles(ir::Opcode op);

/// Safety limits for a concrete run.
struct RunLimits {
  std::uint64_t max_steps = 100'000'000;  ///< dynamic instruction cap
  std::size_t data_words = 1u << 16;      ///< data memory size (words)
};

/// Results of one concrete execution. `mem_cycles` is the instruction-memory
/// service time — the paper's "memory contribution to the ACET". Energy is
/// computed downstream by `ucp_energy` from these counters.
struct RunMetrics {
  std::uint64_t instructions = 0;           ///< executed (Figure 8 numerator)
  std::uint64_t prefetch_instructions = 0;  ///< subset that were prefetches
  std::uint64_t total_cycles = 0;           ///< fetch + execute cycles
  std::uint64_t mem_cycles = 0;             ///< instruction-fetch cycles only
  cache::CacheStats cache;                  ///< final cache counters
};

/// Executes a program on the mini-ISA with a concrete instruction cache.
/// This is the trace-generation substrate standing in for the paper's gem5
/// runs: every instruction fetch goes through `CacheSim` at the address the
/// `Layout` assigned, so prefetch insertions change timing exactly as a real
/// binary relocation would.
///
/// The interpreter also *validates flow facts*: if any loop header executes
/// more times per loop entry than its declared bound, the run throws — a
/// wrong bound would silently invalidate the WCET analysis otherwise.
class Interpreter {
 public:
  using TraceHook = std::function<void(const ir::Instruction&,
                                       std::uint32_t address,
                                       const cache::FetchResult&)>;

  Interpreter(const ir::Program& program, const ir::Layout& layout,
              cache::CacheSim& cache, RunLimits limits = {});
  /// Same, with the program's natural loops already found (in any order),
  /// e.g. from its analysis::ContextGraph.
  Interpreter(const ir::Program& program, const ir::Layout& layout,
              cache::CacheSim& cache,
              const std::vector<ir::NaturalLoop>& loops, RunLimits limits = {});

  /// Runs from the entry block to halt and returns the metrics. Resource
  /// and flow-fact violations throw InvalidArgument (legacy channel).
  RunMetrics run();

  /// Budget-aware variant: a run that exhausts the dynamic instruction
  /// budget returns kStepBudgetExhausted (within `limits.max_steps` steps —
  /// a malformed program can never hang the pipeline), and a contradicted
  /// loop bound returns kLoopBoundViolated, instead of throwing. Genuine
  /// program errors (division by zero, data out of bounds) still throw.
  Expected<RunMetrics> try_run();

  void set_trace_hook(TraceHook hook) { trace_ = std::move(hook); }

  /// Register and data-memory state after (or during) a run, for test
  /// assertions on kernel results. `data()` holds the initial image
  /// extended to the highest word stored so far; every word past its end
  /// reads 0. Two runs that load the same image and store the same values
  /// at the same words return equal vectors.
  std::int64_t reg(std::uint8_t index) const;
  const std::vector<std::int64_t>& data() const { return data_; }

 private:
  std::int64_t& reg_ref(std::uint8_t index);
  std::int64_t data_at(std::int64_t address) const;
  void data_set(std::int64_t address, std::int64_t value);
  /// Executes one non-terminator instruction; returns execute cycles.
  std::uint32_t execute(const ir::Instruction& in, std::uint64_t now);

  const ir::Program& program_;
  const ir::Layout& layout_;
  cache::CacheSim& cache_;
  RunLimits limits_;
  TraceHook trace_;

  std::vector<std::int64_t> regs_;
  std::vector<std::int64_t> data_;

  // Flow-fact validation state.
  struct LoopCheck {
    ir::BlockId header;
    std::uint32_t bound;
    std::vector<bool> member;  // indexed by BlockId
    std::uint32_t count = 0;
  };
  std::vector<LoopCheck> loop_checks_;      // by loop
  std::vector<std::int32_t> header_index_;  // BlockId -> loop_checks_ index
};

/// Convenience wrapper: lay out, build a cache, run, return metrics.
RunMetrics run_program(const ir::Program& program,
                       const cache::CacheConfig& config,
                       const cache::MemTiming& timing, RunLimits limits = {});

/// Budget-aware convenience wrapper over Interpreter::try_run.
Expected<RunMetrics> run_program_checked(const ir::Program& program,
                                         const cache::CacheConfig& config,
                                         const cache::MemTiming& timing,
                                         RunLimits limits = {});
/// Same, with the program's natural loops already found.
Expected<RunMetrics> run_program_checked(
    const ir::Program& program, const std::vector<ir::NaturalLoop>& loops,
    const cache::CacheConfig& config, const cache::MemTiming& timing,
    RunLimits limits = {});

}  // namespace ucp::sim
