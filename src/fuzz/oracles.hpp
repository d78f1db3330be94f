#pragma once

#include <cstdint>
#include <string>

#include "cache/config.hpp"
#include "core/optimizer.hpp"
#include "ir/program.hpp"

namespace ucp::fuzz {

/// Which differential soundness oracle a program violated. Every value
/// except kNone names a property that must hold for ANY valid program if
/// the analyses are sound — a single counterexample is a pipeline bug (or
/// an injected fault; kInjected pins the detection path itself).
enum class Oracle : std::uint8_t {
  kNone,                ///< all checks passed
  kRuntime,             ///< pipeline threw, contradicted a loop bound or
                        ///< the WCET engine failed internally
  kSimVsIpet,           ///< concrete mem cycles exceed τ_w on the input binary
  kMustHit,             ///< always-hit (all contexts) fetch observed a miss
  kMustMiss,            ///< always-miss (all contexts) fetch observed a hit
  kPersistence,         ///< persistent (all contexts) fetch missed twice or more
  kTheorem1,            ///< optimized τ_w exceeds original τ_w
  kCertificate,         ///< the structural τ_w fails its optimality
                        ///< certificate
  kInjected,            ///< forced by an armed fuzz.oracle fault
};

const char* oracle_name(Oracle oracle);
/// Inverse of oracle_name (which also reads "structural-vs-sparse", the
/// certificate oracle's former name); throws InvalidArgument on an unknown
/// name.
Oracle oracle_from_name(const std::string& name);

/// The memory system and optimizer the battery runs under.
struct OracleOptions {
  cache::CacheConfig config;   ///< cache geometry under test
  cache::MemTiming timing;     ///< hit/miss/prefetch cycles
  core::OptimizerOptions optimizer;
};

/// Verdict of one program against the oracle battery. `violation` is the
/// FIRST violated oracle (checks run in a fixed order, so the verdict is
/// deterministic); `pipeline_ok == false` means a resource budget was
/// exhausted before the checks completed — an explained skip, never a
/// soundness verdict.
struct OracleReport {
  Oracle violation = Oracle::kNone;
  std::string detail;          ///< human-readable cause when violated
  bool pipeline_ok = true;     ///< false: skipped (budget/solver exhaustion)
  std::string pipeline_note;   ///< why the pipeline could not finish
  std::size_t checks_run = 0;  ///< oracles that actually evaluated

  // Deterministic per-case facts (journaled, fingerprinted by campaigns).
  std::uint64_t tau_original = 0;   ///< τ_w of the input binary
  std::uint64_t tau_optimized = 0;  ///< τ_w after optimization (0 if skipped)
  std::uint64_t sim_mem_cycles = 0; ///< concrete memory cycles, input binary
  std::uint64_t instructions = 0;   ///< dynamic instruction count
  std::size_t prefetches = 0;       ///< insertions the optimizer accepted

  bool violated() const { return violation != Oracle::kNone; }
};

/// Runs the full differential battery on `program`:
///  1. concrete execution with a trace hook, collecting per-instruction
///     hit/miss counts (a contradicted loop bound or a throw is kRuntime);
///  2. must/may + persistence classification vs the trace — a fetch that is
///     kAlwaysHit in EVERY context of its instruction may never miss, an
///     all-contexts kAlwaysMiss fetch may never hit, and an all-contexts
///     persistent fetch may miss at most once (conjunction over contexts is
///     what makes the check sound without tracking the concrete context);
///  3. sim-vs-IPET: simulated memory cycles <= τ_w (valid on the
///     prefetch-free input binary only — optimized binaries pay
///     prefetch-issue traffic that τ_w excludes by definition);
///  4. Theorem 1: the optimizer's output, re-analyzed against the same
///     context graph (prefetch insertion never changes the CFG), must not
///     increase τ_w;
///  5. ipet-certificate: the production engine's (IpetSystem) τ_w and
///     counts must pass wcet::certificate_violation, a solver-free proof
///     that they are the Li/Malik IPET optimum.
/// An armed `fuzz.oracle` fault site forces a kInjected violation first.
OracleReport check_program(const ir::Program& program,
                           const OracleOptions& options);

}  // namespace ucp::fuzz
