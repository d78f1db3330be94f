#include "analysis/cache_analysis.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/cancellation.hpp"
#include "support/check.hpp"

namespace ucp::analysis {

std::string classification_name(Classification c) {
  switch (c) {
    case Classification::kAlwaysHit:
      return "always-hit";
    case Classification::kAlwaysMiss:
      return "always-miss";
    case Classification::kNotClassified:
      return "not-classified";
  }
  UCP_CHECK_MSG(false, "unknown classification");
}

Classification CacheAnalysisResult::classify(NodeId node,
                                             std::size_t instr_index) const {
  UCP_REQUIRE(node < per_node.size(), "node id out of range");
  UCP_REQUIRE(instr_index < per_node[node].size(),
              "instruction index out of range");
  return per_node[node][instr_index];
}

const MustMay& CacheAnalysisResult::state_in(NodeId node) const {
  UCP_REQUIRE(node < in_states.size(), "node id out of range");
  return in_states[node];
}

const MustMay& CacheAnalysisResult::state_out(NodeId node) const {
  UCP_REQUIRE(node < out_states.size(), "node id out of range");
  return out_states[node];
}

std::uint64_t CacheAnalysisResult::count(Classification c) const {
  std::uint64_t n = 0;
  for (const auto& block : per_node)
    for (Classification cls : block)
      if (cls == c) ++n;
  return n;
}

void apply_instruction(MustMay& state, const ir::Instruction& instr,
                       const ir::Layout& layout) {
  const MemBlockId own = layout.mem_block(instr.id);
  state.must.update_must(own);
  state.may.update_may(own);
  if (instr.is_prefetch()) {
    const MemBlockId target = layout.mem_block(instr.pf_target);
    state.must.update_must(target);
    state.may.update_may(target);
  }
}

namespace {

/// Accumulates `contrib` into `in`: the first contribution is copied (the
/// neutral element of the must join is "everything cached", which has no
/// finite representation, so the fixpoint tracks has-state explicitly);
/// later ones join in place. Returns true iff `in` changed.
bool merge_in(MustMay& in, bool& has_in, const MustMay& contrib) {
  if (!has_in) {
    in = contrib;
    has_in = true;
    return true;
  }
  const bool must_changed = in.must.join_must_with(contrib.must);
  const bool may_changed = in.may.join_may_with(contrib.may);
  return must_changed || may_changed;
}

/// The block transfer of both fixpoints: classifies every fetch of `bb`
/// against the state it meets, writing the row into `cls`, and returns the
/// block's out-state. A node's row therefore comes from its last transfer;
/// that transfer saw the node's final in-state, because a worklist re-queues
/// a node whenever a merge changes its in-state (DESIGN.md §8.1).
MustMay classify_block(const MustMay& in, const ir::BasicBlock& bb,
                       const ir::Layout& layout,
                       std::vector<Classification>& cls) {
  MustMay state = in;
  cls.clear();
  cls.reserve(bb.instrs.size());
  for (const ir::Instruction& instr : bb.instrs) {
    const MemBlockId own = layout.mem_block(instr.id);
    Classification c = Classification::kNotClassified;
    if (state.must.must_contain(own)) {
      c = Classification::kAlwaysHit;
    } else if (!state.may.may_contain(own)) {
      c = Classification::kAlwaysMiss;
    }
    cls.push_back(c);
    apply_instruction(state, instr, layout);
  }
  return state;
}

/// Hash-consing table for converged-enough abstract states: canonicalizes a
/// freshly computed out-state to the first structurally equal state seen in
/// this fixpoint run. After canonicalization, equal states share one COW
/// payload, so the "did the out-state change?" reconvergence test and every
/// downstream join against an identical state degenerate to a pointer
/// compare. Scoped per analysis run — states never leak across programs or
/// configs, and the table dies with the run.
class StateInterner {
 public:
  /// Canonicalizes `c` in place; returns true iff `c` was redirected to an
  /// existing (deduplicated) payload.
  bool intern(AbstractCache& c) {
    std::vector<AbstractCache>& bucket = map_[c.content_hash()];
    for (const AbstractCache& canon : bucket) {
      if (canon == c) {
        if (canon.shares_storage_with(c)) return false;
        c = canon;
        return true;
      }
    }
    bucket.push_back(c);
    return false;
  }

 private:
  std::unordered_map<std::uint64_t, std::vector<AbstractCache>> map_;
};

}  // namespace

CacheAnalysisResult analyze_cache(const ContextGraph& graph,
                                  const ir::Layout& layout,
                                  const cache::CacheConfig& config) {
  return analyze_cache(graph, graph.program(), layout, config);
}

CacheAnalysisResult analyze_cache(const ContextGraph& graph,
                                  const ir::Program& program,
                                  const ir::Layout& layout,
                                  const cache::CacheConfig& config) {
  UCP_REQUIRE(program.num_blocks() == graph.program().num_blocks(),
              "program CFG does not match the context graph");
  obs::Span span("analysis.cache.fixpoint");
  const std::size_t n = graph.num_nodes();

  CacheAnalysisResult result;
  const MustMay empty{AbstractCache(config), AbstractCache(config)};
  result.in_states.assign(n, empty);
  result.out_states.assign(n, empty);
  result.per_node.assign(n, {});

  std::vector<bool> has_in(n, false);
  has_in[graph.entry_node()] = true;  // cold cache at program start

  // Instrumentation aggregates locally; one registry add after convergence
  // (never per iteration — see DESIGN.md §11 hot-path discipline).
  std::uint64_t joins = 0;
  std::uint64_t deduped = 0;
  std::size_t peak_worklist = 0;
  std::uint32_t pops = 0;
  const std::uint64_t copied_before =
      AbstractCache::sets_copied_on_this_thread();

  // SCC-sparse fixpoint: finalize one SCC at a time in condensation
  // order. A node's in-state only ever receives contributions from its
  // own SCC (still iterating) or earlier SCCs (already final), so once an
  // SCC reaches its local fixpoint its states are final — no global
  // re-seeding, no revisiting. Trivial SCCs (single node, no self edge)
  // are a single transfer. Within an SCC, a min-heap on topo position
  // propagates states in ACFG order, which converges loop bodies in few
  // sweeps. Out-states are hash-consed so the reconvergence test and
  // identical-state joins are pointer compares.
  StateInterner interner;
  const std::vector<NodeId>& topo = graph.topo_order();
  const std::vector<NodeId>& order = graph.scc_order();
  const std::vector<std::uint32_t>& begin = graph.scc_begin();
  std::vector<std::uint8_t> queued(n, 0);
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<std::uint32_t>>
      heap;

  const auto process = [&](NodeId id) {
    if ((++pops & 0x3F) == 0) throw_if_cancelled("analyze_cache fixpoint");
    if (!has_in[id]) return;  // no predecessor state yet

    const ir::BasicBlock& bb = program.block(graph.node(id).block);
    MustMay out =
        classify_block(result.in_states[id], bb, layout, result.per_node[id]);
    deduped += interner.intern(out.must) ? 1 : 0;
    deduped += interner.intern(out.may) ? 1 : 0;
    // Canonicalized states make this a pointer compare on the hot
    // (reconverged) path.
    const bool out_changed = !(out == result.out_states[id]);
    result.out_states[id] = std::move(out);
    if (!out_changed) return;

    const std::uint32_t my_scc = graph.scc_of(id);
    for (std::uint32_t ei : graph.out_edges(id)) {
      const CgEdge& e = graph.edges()[ei];
      bool was_in = has_in[e.to];
      ++joins;
      if (merge_in(result.in_states[e.to], was_in, result.out_states[id])) {
        has_in[e.to] = true;
        // Successors in later SCCs keep the merged state and run when
        // their SCC's turn comes; only same-SCC successors re-enter the
        // local worklist (skip-propagation).
        if (graph.scc_of(e.to) == my_scc && !queued[e.to]) {
          queued[e.to] = 1;
          heap.push(graph.topo_pos(e.to));
          peak_worklist = std::max(peak_worklist, heap.size());
        }
      }
    }
  };

  for (std::uint32_t s = 0; s < graph.scc_count(); ++s) {
    if (graph.scc_trivial(s)) {
      process(order[begin[s]]);
      continue;
    }
    for (std::uint32_t i = begin[s]; i < begin[s + 1]; ++i) {
      heap.push(graph.topo_pos(order[i]));
      queued[order[i]] = 1;
    }
    peak_worklist = std::max(peak_worklist, heap.size());
    while (!heap.empty()) {
      const NodeId id = topo[heap.top()];
      heap.pop();
      queued[id] = 0;
      process(id);
    }
  }

  // Every node with an in-state holds the row of its last transfer; only
  // never-transferred nodes (no in-state) are classified here.
  for (NodeId id = 0; id < n; ++id) {
    if (has_in[id]) continue;
    const ir::BasicBlock& bb = program.block(graph.node(id).block);
    classify_block(result.in_states[id], bb, layout, result.per_node[id]);
  }

  if (obs::enabled()) {
    static obs::Counter& c_runs =
        obs::registry().counter("analysis.cache.fixpoints");
    static obs::Counter& c_pops =
        obs::registry().counter("analysis.cache.worklist_pops");
    static obs::Counter& c_joins =
        obs::registry().counter("analysis.cache.joins");
    static obs::Counter& c_sccs =
        obs::registry().counter("analysis.cache.scc_count");
    static obs::Counter& c_dedup =
        obs::registry().counter("analysis.cache.states_deduped");
    static obs::Counter& c_copied =
        obs::registry().counter("analysis.cache.sets_copied");
    static obs::Gauge& g_peak =
        obs::registry().gauge("analysis.cache.peak_worklist");
    c_runs.increment();
    c_pops.add(pops);
    c_joins.add(joins);
    c_sccs.add(graph.scc_count());
    c_dedup.add(deduped);
    c_copied.add(AbstractCache::sets_copied_on_this_thread() -
                 copied_before);
    g_peak.set_max(static_cast<std::int64_t>(peak_worklist));
  }
  return result;
}

// ---------------------------------------------------------------------------
// IncrementalCacheAnalysis
// ---------------------------------------------------------------------------

void IncrementalCacheAnalysis::block_signature(const ir::BasicBlock& bb,
                                               const ir::Layout& layout,
                                               BlockSig& out) {
  out.clear();
  out.reserve(bb.instrs.size());
  for (const ir::Instruction& instr : bb.instrs) {
    out.push_back(layout.mem_block(instr.id));
    if (instr.is_prefetch()) out.push_back(layout.mem_block(instr.pf_target));
  }
}

IncrementalCacheAnalysis::IncrementalCacheAnalysis(
    const ContextGraph& graph, const ir::Program& program,
    const cache::CacheConfig& config)
    : IncrementalCacheAnalysis(
          graph, program, config,
          analyze_cache(graph, program,
                        ir::Layout(program, config.block_bytes), config)) {}

IncrementalCacheAnalysis::IncrementalCacheAnalysis(
    const ContextGraph& graph, const ir::Program& program,
    const cache::CacheConfig& config, CacheAnalysisResult&& converged)
    : graph_(&graph),
      config_(config),
      layout_(program, config.block_bytes),
      base_(std::move(converged)) {
  UCP_REQUIRE(base_.per_node.size() == graph.num_nodes() &&
                  base_.in_states.size() == graph.num_nodes() &&
                  base_.out_states.size() == graph.num_nodes(),
              "adopted analysis does not match the context graph");
  sign_blocks(program);
}

void IncrementalCacheAnalysis::sign_blocks(const ir::Program& program) {
  base_sigs_.resize(program.num_blocks());
  for (ir::BlockId b = 0; b < program.num_blocks(); ++b)
    block_signature(program.block(b), layout_, base_sigs_[b]);
}

const IncrementalCacheAnalysis::TrialResult&
IncrementalCacheAnalysis::analyze_trial(const ir::Program& trial,
                                        std::size_t slot) {
  UCP_REQUIRE(trial.num_blocks() == graph_->program().num_blocks(),
              "trial program CFG does not match the context graph");
  UCP_REQUIRE(slot < kTrialSlots, "trial slot out of range");
  ++trials_;
  if (obs::enabled()) {
    static obs::Counter& c_trials =
        obs::registry().counter("analysis.incremental.trials");
    c_trials.increment();
  }
  const std::uint64_t copied_before =
      AbstractCache::sets_copied_on_this_thread();
  if (!slots_[slot]) {
    slots_[slot].emplace(
        TrialResult{ir::Layout(trial, config_.block_bytes), {}, {}, {}, {}});
  } else {
    slots_[slot]->layout.assign(trial);
  }
  TrialResult& t = *slots_[slot];
  t.affected.clear();
  t.in_states.clear();
  t.out_states.clear();

  // Blocks whose abstract transfer changed: an edit to the instruction list
  // or any relocation across a memory-block boundary changes the signature
  // (an insertion strictly lengthens it, so equal-length coincidences cannot
  // mask an edit).
  block_changed_.assign(trial.num_blocks(), 0);
  bool any_changed = false;
  for (ir::BlockId b = 0; b < trial.num_blocks(); ++b) {
    block_signature(trial.block(b), t.layout, sig_);
    if (sig_ != base_sigs_[b]) {
      block_changed_[b] = 1;
      any_changed = true;
    }
  }
  if (!any_changed) return t;  // transfer-identical: base states stand

  // Affected = changed-transfer nodes plus everything reachable from them
  // (back edges included). Nodes outside this closure have an untouched
  // equation subsystem, so their base states already solve the trial's
  // fixpoint (DESIGN.md §8).
  const std::size_t n = graph_->num_nodes();
  affected_mark_.assign(n, 0);
  stack_.clear();
  for (NodeId id = 0; id < n; ++id) {
    if (block_changed_[graph_->node(id).block]) {
      affected_mark_[id] = 1;
      stack_.push_back(id);
    }
  }
  while (!stack_.empty()) {
    const NodeId v = stack_.back();
    stack_.pop_back();
    for (std::uint32_t ei : graph_->out_edges(v)) {
      const NodeId w = graph_->edges()[ei].to;
      if (!affected_mark_[w]) {
        affected_mark_[w] = 1;
        stack_.push_back(w);
      }
    }
  }

  slot_of_.assign(n, -1);
  for (NodeId id : graph_->topo_order()) {
    if (!affected_mark_[id]) continue;
    slot_of_[id] = static_cast<std::int32_t>(t.affected.size());
    t.affected.push_back(id);
  }
  const std::size_t m = t.affected.size();
  nodes_reanalyzed_ += m;
  if (obs::enabled()) {
    static obs::Counter& c_nodes =
        obs::registry().counter("analysis.incremental.nodes_reanalyzed");
    c_nodes.add(m);
  }

  if (!empty_)
    empty_.emplace(MustMay{AbstractCache(config_), AbstractCache(config_)});
  t.in_states.assign(m, *empty_);
  t.out_states.assign(m, *empty_);
  if (t.cls.size() < m) t.cls.resize(m);
  has_in_.assign(m, 0);
  has_out_.assign(m, 0);

  // Boundary seed: every unaffected predecessor's converged base out-state
  // is final in the trial too, so it contributes as a constant. The graph
  // is built by traversal from the entry, so every predecessor's state is
  // meaningful (no unreachable nodes exist).
  if (affected_mark_[graph_->entry_node()])
    has_in_[slot_of_[graph_->entry_node()]] = 1;  // cold cache at entry
  for (const CgEdge& e : graph_->edges()) {
    if (!affected_mark_[e.to] || affected_mark_[e.from]) continue;
    const std::size_t j = static_cast<std::size_t>(slot_of_[e.to]);
    bool was_in = has_in_[j] != 0;
    merge_in(t.in_states[j], was_in, base_.out_states[e.from]);
    has_in_[j] = 1;
  }

  // Restricted worklist fixpoint over the affected subgraph; a min-heap on
  // topo position propagates states in ACFG order (the fixpoint is the
  // same unique lfp regardless — the heap only reaches it in fewer
  // transfers when the closure spans loop nests).
  const std::greater<std::uint32_t> later;
  work_.clear();
  queued_.assign(n, 0);
  for (NodeId v : t.affected) {
    work_.push_back(graph_->topo_pos(v));
    std::push_heap(work_.begin(), work_.end(), later);
    queued_[v] = 1;
  }
  std::uint32_t pops = 0;
  std::size_t transfers = 0;
  while (!work_.empty()) {
    if ((++pops & 0x3F) == 0)
      throw_if_cancelled("incremental re-analysis fixpoint");
    std::pop_heap(work_.begin(), work_.end(), later);
    const NodeId v = graph_->topo_order()[work_.back()];
    work_.pop_back();
    queued_[v] = 0;
    const std::size_t i = static_cast<std::size_t>(slot_of_[v]);
    if (!has_in_[i]) continue;

    const ir::BasicBlock& bb = trial.block(graph_->node(v).block);
    MustMay out = classify_block(t.in_states[i], bb, t.layout, t.cls[i]);
    ++transfers;
    if (has_out_[i] && out == t.out_states[i]) continue;
    t.out_states[i] = std::move(out);
    has_out_[i] = 1;

    for (std::uint32_t ei : graph_->out_edges(v)) {
      const NodeId w = graph_->edges()[ei].to;  // affected, by closure
      const std::size_t j = static_cast<std::size_t>(slot_of_[w]);
      bool was_in = has_in_[j] != 0;
      const bool changed = merge_in(t.in_states[j], was_in, t.out_states[i]);
      has_in_[j] = 1;
      if (changed && !queued_[w]) {
        work_.push_back(graph_->topo_pos(w));
        std::push_heap(work_.begin(), work_.end(), later);
        queued_[w] = 1;
      }
    }
  }

  for (std::size_t i = 0; i < m; ++i) {
    if (has_in_[i]) continue;  // classified by its last transfer
    const ir::BasicBlock& bb = trial.block(graph_->node(t.affected[i]).block);
    classify_block(t.in_states[i], bb, t.layout, t.cls[i]);
  }
  transfers_ += transfers;
  if (obs::enabled()) {
    static obs::Counter& c_copied =
        obs::registry().counter("analysis.cache.sets_copied");
    c_copied.add(AbstractCache::sets_copied_on_this_thread() -
                 copied_before);
  }
  return t;
}

const IncrementalCacheAnalysis::TrialResult& IncrementalCacheAnalysis::trial(
    std::size_t slot) const {
  UCP_REQUIRE(slot < kTrialSlots && slots_[slot],
              "trial slot holds no trial");
  return *slots_[slot];
}

void IncrementalCacheAnalysis::promote(const ir::Program& trial_program,
                                       std::size_t slot) {
  UCP_REQUIRE(slot < kTrialSlots && slots_[slot],
              "promoting a trial slot that holds no trial");
  TrialResult& t = *slots_[slot];
  std::swap(layout_, t.layout);
  for (std::size_t i = 0; i < t.affected.size(); ++i) {
    const NodeId v = t.affected[i];
    std::swap(base_.in_states[v], t.in_states[i]);
    std::swap(base_.out_states[v], t.out_states[i]);
    std::swap(base_.per_node[v], t.cls[i]);
  }
  sign_blocks(trial_program);
}

}  // namespace ucp::analysis
