#include "ir/dominators.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace ucp::ir {

DominatorTree::DominatorTree(const Program& program)
    : preds_(program.predecessors()) {
  const std::vector<BlockId> rpo = program.reverse_post_order();
  const std::vector<std::vector<BlockId>>& preds = preds_;

  idom_.assign(program.num_blocks(), kInvalidBlock);
  rpo_index_.assign(program.num_blocks(), kUnreached);
  for (std::uint32_t i = 0; i < rpo.size(); ++i) rpo_index_[rpo[i]] = i;

  const BlockId entry = program.entry();
  idom_[entry] = entry;

  auto intersect = [&](BlockId a, BlockId b) {
    while (a != b) {
      while (rpo_index_[a] > rpo_index_[b]) a = idom_[a];
      while (rpo_index_[b] > rpo_index_[a]) b = idom_[b];
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (BlockId bb : rpo) {
      if (bb == entry) continue;
      BlockId new_idom = kInvalidBlock;
      for (BlockId p : preds[bb]) {
        if (rpo_index_[p] == kUnreached) continue;  // unreachable pred
        if (idom_[p] == kInvalidBlock) continue;    // not processed yet
        new_idom =
            (new_idom == kInvalidBlock) ? p : intersect(new_idom, p);
      }
      UCP_CHECK_MSG(new_idom != kInvalidBlock,
                    "reachable block without processed predecessor");
      if (idom_[bb] != new_idom) {
        idom_[bb] = new_idom;
        changed = true;
      }
    }
  }
}

BlockId DominatorTree::idom(BlockId bb) const {
  UCP_REQUIRE(bb < idom_.size(), "block id out of range");
  UCP_REQUIRE(idom_[bb] != kInvalidBlock, "block is unreachable");
  return idom_[bb];
}

bool DominatorTree::reachable(BlockId bb) const {
  UCP_REQUIRE(bb < idom_.size(), "block id out of range");
  return rpo_index_[bb] != kUnreached;
}

bool DominatorTree::dominates(BlockId a, BlockId b) const {
  UCP_REQUIRE(reachable(a) && reachable(b),
              "dominance query on unreachable block");
  BlockId x = b;
  for (;;) {
    if (x == a) return true;
    const BlockId up = idom_[x];
    if (up == x) return false;  // reached entry
    x = up;
  }
}

bool NaturalLoop::contains(BlockId bb) const {
  return std::binary_search(blocks.begin(), blocks.end(), bb);
}

std::vector<NaturalLoop> find_natural_loops(const Program& program) {
  const DominatorTree dom(program);
  const std::vector<std::vector<BlockId>>& preds = dom.predecessors();

  // Collect back edges, grouped by header.
  std::map<BlockId, std::vector<BlockId>> latches_by_header;
  for (const BasicBlock& bb : program.blocks()) {
    if (!dom.reachable(bb.id)) continue;
    for (BlockId s : bb.succs) {
      if (!dom.reachable(s)) continue;
      if (dom.dominates(s, bb.id)) {
        latches_by_header[s].push_back(bb.id);
      } else if (s != bb.id) {
        // A retreating edge whose target does not dominate the source would
        // make the CFG irreducible.
        // (Forward and cross edges never satisfy rpo[s] <= rpo[bb] both ways;
        // detecting true irreducibility precisely requires a DFS; we settle
        // for the dominance criterion, which is exact on reducible CFGs.)
      }
    }
  }

  std::vector<NaturalLoop> loops;
  for (auto& [header, latches] : latches_by_header) {
    NaturalLoop loop;
    loop.header = header;
    loop.latches = latches;
    // Natural loop body: header plus all blocks that reach a latch without
    // passing through the header (reverse flood fill from the latches).
    std::set<BlockId> body{header};
    std::vector<BlockId> work(latches.begin(), latches.end());
    while (!work.empty()) {
      const BlockId b = work.back();
      work.pop_back();
      if (!body.insert(b).second) continue;
      for (BlockId p : preds[b]) {
        if (dom.reachable(p) && body.find(p) == body.end()) work.push_back(p);
      }
    }
    loop.blocks.assign(body.begin(), body.end());
    loops.push_back(std::move(loop));
  }

  // Nesting: loop A directly contains loop B if A's body contains B's header
  // and no intermediate loop does.
  for (auto& outer : loops) {
    for (const auto& inner : loops) {
      if (inner.header == outer.header) continue;
      if (!outer.contains(inner.header)) continue;
      bool direct = true;
      for (const auto& mid : loops) {
        if (mid.header == outer.header || mid.header == inner.header) continue;
        if (outer.contains(mid.header) && mid.contains(inner.header)) {
          direct = false;
          break;
        }
      }
      if (direct) outer.sub_headers.push_back(inner.header);
    }
  }
  return loops;
}

std::vector<NaturalLoop> loops_outermost_first(const Program& program) {
  std::vector<NaturalLoop> loops = find_natural_loops(program);
  std::sort(loops.begin(), loops.end(),
            [](const NaturalLoop& a, const NaturalLoop& b) {
              if (a.blocks.size() != b.blocks.size())
                return a.blocks.size() > b.blocks.size();
              return a.header < b.header;
            });
  return loops;
}

}  // namespace ucp::ir
