#include "core/wcet_path.hpp"

#include <map>
#include <optional>

#include "support/check.hpp"

namespace ucp::core {

using analysis::CgEdge;
using analysis::ContextGraph;
using analysis::NodeId;
using cache::MemBlockId;

std::uint64_t WcetPath::slack_between(std::size_t from, std::size_t to) const {
  UCP_REQUIRE(from <= to && to <= refs.size(), "bad slack interval");
  UCP_CHECK(t_w_prefix.size() == refs.size() + 1);
  return to > from + 1 ? t_w_prefix[to] - t_w_prefix[from + 1] : 0;
}

namespace {

/// Exact LRU cache tracked along a single path; reports the victim of every
/// installation so Property 3 (replaced-block identification) falls out.
class PathCache {
 public:
  explicit PathCache(const cache::CacheConfig& config) : config_(config) {
    sets_.resize(config_.num_sets());
  }

  struct Access {
    bool hit = false;
    std::optional<MemBlockId> evicted;
  };

  Access access(MemBlockId block) {
    auto& set = sets_[config_.set_of(block)];
    Access out;
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (set[i] == block) {
        out.hit = true;
        set.erase(set.begin() + static_cast<std::ptrdiff_t>(i));
        set.insert(set.begin(), block);
        return out;
      }
    }
    if (set.size() == config_.assoc) {
      out.evicted = set.back();
      set.pop_back();
    }
    set.insert(set.begin(), block);
    return out;
  }

 private:
  cache::CacheConfig config_;
  std::vector<std::vector<MemBlockId>> sets_;
};

}  // namespace

WcetPath build_wcet_path(const ContextGraph& graph, const ir::Program& program,
                         const ir::Layout& layout,
                         const cache::CacheConfig& config,
                         const cache::MemTiming& timing,
                         const analysis::CacheAnalysisResult& classification,
                         const wcet::WcetResult& wcet) {
  UCP_REQUIRE(wcet.ok(), "WCET analysis did not produce a solution");
  WcetPath path;
  path.t_w_prefix.push_back(0);
  PathCache cache(config);
  /// Last path position whose installation evicted each block.
  std::map<MemBlockId, std::int32_t> last_evictor;

  std::vector<bool> visited(graph.num_nodes(), false);
  std::vector<bool> is_exit(graph.num_nodes(), false);
  for (NodeId e : graph.exit_nodes()) is_exit[e] = true;

  NodeId cur = graph.entry_node();
  std::size_t guard = 0;

  while (true) {
    UCP_CHECK_MSG(++guard <= graph.num_nodes() + 1,
                  "WCET path walk did not terminate");
    visited[cur] = true;

    const ir::BasicBlock& bb = program.block(graph.node(cur).block);
    for (std::uint32_t i = 0; i < bb.instrs.size(); ++i) {
      const ir::Instruction& instr = bb.instrs[i];
      PathRef ref;
      ref.node = cur;
      ref.instr_index = i;
      ref.instr = instr.id;
      ref.block = layout.mem_block(instr.id);
      ref.is_prefetch = instr.is_prefetch();
      ref.t_w = wcet::ref_cycles(classification.classify(cur, i), timing);
      ref.n_w = wcet.node_counts[cur];
      const auto pos = static_cast<std::int32_t>(path.refs.size());

      const PathCache::Access own = cache.access(ref.block);
      ref.path_miss = !own.hit;
      if (ref.path_miss) {
        const auto it = last_evictor.find(ref.block);
        ref.evictor = (it != last_evictor.end()) ? it->second : -1;
      }
      if (own.evicted) last_evictor[*own.evicted] = pos;

      if (ref.is_prefetch) {
        // The prefetch installs its target block (MRU); its victim counts as
        // evicted *by this reference* for downstream miss attribution.
        const MemBlockId target = layout.mem_block(instr.pf_target);
        const PathCache::Access t = cache.access(target);
        if (t.evicted) last_evictor[*t.evicted] = pos;
      }
      path.refs.push_back(ref);
      path.t_w_prefix.push_back(path.t_w_prefix.back() + ref.t_w);
    }

    if (is_exit[cur]) break;

    // J_SE path selection: follow the worst-case flow. Prefer the unvisited
    // successor carrying the most flow; when stuck at a loop tail (only a
    // back edge remains), hop to the already-visited REST header and leave
    // through its exit edge — the ACFG linearization of Supplement S.3.
    auto pick = [&](NodeId from) -> NodeId {
      NodeId best = analysis::kInvalidNode;
      std::uint64_t best_count = 0;
      std::size_t best_depth = 0;
      bool found = false;
      for (std::uint32_t ei : graph.out_edges(from)) {
        const CgEdge& e = graph.edges()[ei];
        if (e.back || visited[e.to]) continue;
        const std::uint64_t c = wcet.edge_counts[ei];
        // Flow ties occur where one unit exits a loop while others iterate;
        // staying in the deeper context follows the iterating units (the
        // loop body is where the worst-case time accrues).
        const std::size_t depth = graph.node(e.to).ctx.size();
        if (!found || c > best_count ||
            (c == best_count && depth > best_depth)) {
          best = e.to;
          best_count = c;
          best_depth = depth;
          found = true;
        }
      }
      return best;
    };

    NodeId next = pick(cur);
    NodeId hop = cur;
    std::size_t hop_guard = 0;
    while (next == analysis::kInvalidNode &&
           hop_guard++ <= graph.num_nodes()) {
      // Follow a back edge up to its header and retry from there.
      NodeId header = analysis::kInvalidNode;
      for (std::uint32_t ei : graph.out_edges(hop)) {
        const CgEdge& e = graph.edges()[ei];
        if (e.back && e.to != hop) header = e.to;
      }
      if (header == analysis::kInvalidNode) break;
      hop = header;
      next = pick(hop);
    }
    if (next == analysis::kInvalidNode) break;  // ran off the flow; stop
    cur = next;
  }
  return path;
}

}  // namespace ucp::core
