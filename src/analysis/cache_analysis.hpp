#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/context_graph.hpp"
#include "analysis/domain.hpp"
#include "ir/layout.hpp"

namespace ucp::analysis {

/// Outcome of abstract interpretation for one instruction fetch in one
/// context. WCET accounting charges hit time to kAlwaysHit and miss time to
/// everything else (the sound over-approximation).
enum class Classification : std::uint8_t {
  kAlwaysHit,
  kAlwaysMiss,
  kNotClassified,
};

std::string classification_name(Classification c);

/// Joint must/may cache state.
struct MustMay {
  AbstractCache must;
  AbstractCache may;

  friend bool operator==(const MustMay&, const MustMay&) = default;
};

/// Result of the must/may analysis over a VIVU context graph: the abstract
/// state entering every node, and a classification for every instruction
/// fetch (per context).
///
/// Prefetch semantics: a kPrefetch instruction is itself a fetched
/// instruction (classified like any other reference); its *effect* installs
/// the target block at MRU in both domains. Treating the install as
/// immediate is sound for WCET only when every prefetch is *effective*
/// (Definition 10) — the optimizer guarantees that for the prefetches it
/// inserts, and the concrete simulator models late prefetches exactly so
/// tests can audit the assumption.
class CacheAnalysisResult {
 public:
  Classification classify(NodeId node, std::size_t instr_index) const;
  const MustMay& state_in(NodeId node) const;
  /// State after executing the whole block of `node`.
  const MustMay& state_out(NodeId node) const;

  /// Counts per classification across all nodes (diagnostics).
  std::uint64_t count(Classification c) const;

  std::vector<std::vector<Classification>> per_node;  // [node][instr index]
  std::vector<MustMay> in_states;                     // [node]
  std::vector<MustMay> out_states;                    // [node]
};

/// Runs the must+may fixpoint over `graph` with instruction addresses taken
/// from `layout`, for cache geometry `config`. It Tarjan-decomposes
/// the context graph once, finalizes one SCC at a time in condensation
/// order with a topo-position priority worklist, and hash-conses out-states
/// so reconvergence checks and re-joins of identical states are pointer
/// comparisons.
///
/// `program` may differ from `graph.program()` as long as it has the same
/// CFG structure (same blocks and successors); the optimizer exploits this
/// to evaluate prefetch-equivalent candidate programs (Definition 5) against
/// one context graph — inserting straight-line instructions never changes
/// the VIVU expansion.
CacheAnalysisResult analyze_cache(const ContextGraph& graph,
                                  const ir::Program& program,
                                  const ir::Layout& layout,
                                  const cache::CacheConfig& config);

/// Convenience overload using the graph's own program.
CacheAnalysisResult analyze_cache(const ContextGraph& graph,
                                  const ir::Layout& layout,
                                  const cache::CacheConfig& config);

/// Applies one instruction's effect (its own fetch, plus the prefetch
/// install if it is a kPrefetch) to a MustMay state. Shared by the fixpoint
/// and by the optimizer's incremental re-evaluation.
void apply_instruction(MustMay& state, const ir::Instruction& instr,
                       const ir::Layout& layout);

/// Incremental must/may re-analysis for prefetch-equivalent program edits
/// (DESIGN.md §8). Holds the converged analysis of a *base* program and
/// re-analyzes candidate variants by seeding a worklist fixpoint only from
/// the context nodes whose transfer function actually changed — for a
/// prefetch insertion, the edited basic block plus every block whose
/// instructions were relocated across a memory-block boundary — and the
/// nodes reachable from them. Unreachable-from-change nodes provably keep
/// their states (their equation subsystem is untouched), so the recomputed
/// fixpoint is bit-identical to a from-scratch `analyze_cache` of the
/// variant, at a fraction of the work.
class IncrementalCacheAnalysis {
 public:
  IncrementalCacheAnalysis(const ContextGraph& graph,
                           const ir::Program& program,
                           const cache::CacheConfig& config);
  /// Adopts `converged`, the result of `analyze_cache(graph, program,
  /// Layout(program, config.block_bytes), config)` that the caller already
  /// holds, as the base instead of recomputing it.
  IncrementalCacheAnalysis(const ContextGraph& graph,
                           const ir::Program& program,
                           const cache::CacheConfig& config,
                           CacheAnalysisResult&& converged);

  /// Converged analysis of the current base program.
  const CacheAnalysisResult& result() const { return base_; }
  /// Layout of the current base program.
  const ir::Layout& layout() const { return layout_; }

  /// Re-analysis of one candidate program, stored sparsely: states and
  /// classifications for the affected nodes only; every other node is
  /// unchanged from the base. Rows `cls[i]` for i < `affected.size()` are
  /// the trial's; rows past that are spare storage kept for later trials.
  struct TrialResult {
    ir::Layout layout;
    std::vector<NodeId> affected;                  // ascending node ids
    std::vector<MustMay> in_states;                // parallel to affected
    std::vector<MustMay> out_states;               // parallel to affected
    std::vector<std::vector<Classification>> cls;  // parallel to affected
  };

  /// Trials that can be held at once (the optimizer's bare insertion and
  /// its nop-padded retry).
  static constexpr std::size_t kTrialSlots = 2;

  /// Analyzes `trial` (same CFG as the base, possibly with straight-line
  /// insertions and relocated addresses) against the base fixpoint, into
  /// trial slot `slot`. The result stays valid until the next
  /// analyze_trial into, or promote of, that slot. A slot keeps its
  /// storage (layout, lists, states, rows and the worklist scratch) from
  /// trial to trial, so a trial allocates only where it outgrows the ones
  /// before it; a slot is first allocated by its first trial.
  const TrialResult& analyze_trial(const ir::Program& trial,
                                   std::size_t slot = 0);

  /// Adopts the trial in `slot` as the new base: `trial_program` must be
  /// the program it was computed from. The trial's layout, states and rows
  /// are swapped with the base's, not copied; the slot keeps its
  /// `affected` list and holds the replaced base values until its next
  /// trial.
  void promote(const ir::Program& trial_program, std::size_t slot = 0);

  /// The trial last analyzed into `slot`.
  const TrialResult& trial(std::size_t slot) const;

  // --- instrumentation (surfaces in OptimizationReport) -------------------
  std::size_t trials() const { return trials_; }
  /// Cumulative nodes re-analyzed across all trials.
  std::size_t nodes_reanalyzed() const { return nodes_reanalyzed_; }
  /// Cumulative block transfers across all trials; above
  /// `nodes_reanalyzed()` when loops made some node iterate.
  std::size_t transfers() const { return transfers_; }
  std::size_t graph_nodes() const { return graph_->num_nodes(); }

 private:
  /// Per-basic-block transfer signature: the memory blocks each instruction
  /// touches (own fetch, plus prefetch target). Two layouts give a block
  /// the same abstract transfer iff the signatures match.
  using BlockSig = std::vector<MemBlockId>;
  static void block_signature(const ir::BasicBlock& bb,
                              const ir::Layout& layout, BlockSig& out);
  /// Recomputes `base_sigs_` for `program` under `layout_`.
  void sign_blocks(const ir::Program& program);

  const ContextGraph* graph_;
  cache::CacheConfig config_;
  ir::Layout layout_;
  CacheAnalysisResult base_;
  std::vector<BlockSig> base_sigs_;  // [BlockId]

  std::size_t trials_ = 0;
  std::size_t nodes_reanalyzed_ = 0;
  std::size_t transfers_ = 0;

  // Trial storage and worklist scratch, reused across trials; nothing
  // here is allocated before the first trial.
  std::array<std::optional<TrialResult>, kTrialSlots> slots_;
  std::optional<MustMay> empty_;  ///< the cold state, shared by all slots
  BlockSig sig_;
  std::vector<std::uint8_t> block_changed_;
  std::vector<NodeId> stack_;
  std::vector<std::uint8_t> affected_mark_;
  std::vector<std::int32_t> slot_of_;
  std::vector<std::uint8_t> has_in_;
  std::vector<std::uint8_t> has_out_;
  std::vector<std::uint8_t> queued_;
  std::vector<std::uint32_t> work_;  ///< min-heap of topo positions
};

}  // namespace ucp::analysis
