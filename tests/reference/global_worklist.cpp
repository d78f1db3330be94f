#include <deque>

#include "reference/reference.hpp"
#include "support/cancellation.hpp"
#include "support/check.hpp"

namespace ucp::reference {

using analysis::CacheAnalysisResult;
using analysis::CgEdge;
using analysis::Classification;
using analysis::MustMay;
using analysis::NodeId;

namespace {

MustMay transfer_block(const MustMay& in, const ir::BasicBlock& bb,
                       const ir::Layout& layout) {
  MustMay out = in;
  for (const ir::Instruction& instr : bb.instrs)
    analysis::apply_instruction(out, instr, layout);
  return out;
}

/// The first contribution is copied (the must join has no finite neutral
/// element); later ones join in place. Returns true iff `in` changed.
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

void classify_block(const MustMay& in, const ir::BasicBlock& bb,
                    const ir::Layout& layout,
                    std::vector<Classification>& cls) {
  MustMay state = in;
  cls.clear();
  for (const ir::Instruction& instr : bb.instrs) {
    const analysis::MemBlockId own = layout.mem_block(instr.id);
    Classification c = Classification::kNotClassified;
    if (state.must.must_contain(own)) {
      c = Classification::kAlwaysHit;
    } else if (!state.may.may_contain(own)) {
      c = Classification::kAlwaysMiss;
    }
    cls.push_back(c);
    analysis::apply_instruction(state, instr, layout);
  }
}

}  // namespace

CacheAnalysisResult analyze_cache_global_worklist(
    const analysis::ContextGraph& graph, const ir::Layout& layout,
    const cache::CacheConfig& config) {
  return analyze_cache_global_worklist(graph, graph.program(), layout,
                                       config);
}

CacheAnalysisResult analyze_cache_global_worklist(
    const analysis::ContextGraph& graph, const ir::Program& program,
    const ir::Layout& layout, const cache::CacheConfig& config) {
  UCP_REQUIRE(program.num_blocks() == graph.program().num_blocks(),
              "program CFG does not match the context graph");
  const std::size_t n = graph.num_nodes();

  CacheAnalysisResult result;
  const MustMay empty{analysis::AbstractCache(config),
                      analysis::AbstractCache(config)};
  result.in_states.assign(n, empty);
  result.out_states.assign(n, empty);

  std::vector<bool> has_in(n, false);
  has_in[graph.entry_node()] = true;  // cold cache at program start

  // Global FIFO worklist in topological order (only REST back edges
  // iterate).
  std::deque<NodeId> work;
  std::vector<bool> queued(n, false);
  for (NodeId id : graph.topo_order()) {
    work.push_back(id);
    queued[id] = true;
  }
  std::uint32_t pops = 0;
  while (!work.empty()) {
    if ((++pops & 0x3F) == 0) throw_if_cancelled("analyze_cache fixpoint");
    const NodeId id = work.front();
    work.pop_front();
    queued[id] = false;
    if (!has_in[id]) continue;  // no predecessor state yet

    const ir::BasicBlock& bb = program.block(graph.node(id).block);
    MustMay out = transfer_block(result.in_states[id], bb, layout);
    // Any non-empty block caches its own memory blocks, so a freshly
    // computed out-state never equals the empty initializer; an unchanged
    // out-state therefore means successors already merged it.
    const bool out_changed = !(out == result.out_states[id]);
    result.out_states[id] = std::move(out);
    if (!out_changed) continue;

    for (std::uint32_t ei : graph.out_edges(id)) {
      const CgEdge& e = graph.edges()[ei];
      bool was_in = has_in[e.to];
      if (merge_in(result.in_states[e.to], was_in, result.out_states[id])) {
        has_in[e.to] = true;
        if (!queued[e.to]) {
          work.push_back(e.to);
          queued[e.to] = true;
        }
      }
    }
  }

  result.per_node.assign(n, {});
  for (NodeId id = 0; id < n; ++id) {
    const ir::BasicBlock& bb = program.block(graph.node(id).block);
    classify_block(result.in_states[id], bb, layout, result.per_node[id]);
  }
  return result;
}

}  // namespace ucp::reference
