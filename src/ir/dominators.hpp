#pragma once

#include <vector>

#include "ir/program.hpp"

namespace ucp::ir {

/// Dominator tree over a program's CFG (Cooper/Harvey/Kennedy iterative
/// algorithm on reverse post-order). Needed to find natural loops, which in
/// turn drive the VIVU virtual unrolling and the IPET loop-bound constraints.
class DominatorTree {
 public:
  explicit DominatorTree(const Program& program);

  /// Immediate dominator; the entry's idom is itself.
  BlockId idom(BlockId bb) const;
  /// True if `a` dominates `b` (reflexive).
  bool dominates(BlockId a, BlockId b) const;
  /// True if `bb` is reachable from the entry.
  bool reachable(BlockId bb) const;
  /// The CFG's predecessor lists (Program::predecessors()), computed once
  /// for the tree and kept for loop discovery.
  const std::vector<std::vector<BlockId>>& predecessors() const {
    return preds_;
  }

 private:
  std::vector<std::vector<BlockId>> preds_;
  std::vector<BlockId> idom_;
  std::vector<std::uint32_t> rpo_index_;  // position in RPO, for intersect()
  static constexpr std::uint32_t kUnreached = 0xffffffffu;
};

/// One natural loop: the header, the latches (sources of back edges into the
/// header), and the set of member blocks (header included).
struct NaturalLoop {
  BlockId header = kInvalidBlock;
  std::vector<BlockId> latches;
  std::vector<BlockId> blocks;        // sorted ascending
  std::vector<BlockId> sub_headers;   // headers of loops nested directly inside

  bool contains(BlockId bb) const;
};

/// Finds all natural loops of a reducible CFG. Throws InvalidArgument if an
/// irreducible back edge is found (target does not dominate source), since
/// VIVU requires reducible flow.
std::vector<NaturalLoop> find_natural_loops(const Program& program);

/// Loops ordered so that every loop appears after any loop containing it
/// (outermost first). Useful for recursive unrolling.
std::vector<NaturalLoop> loops_outermost_first(const Program& program);

}  // namespace ucp::ir
