#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <thread>

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "analysis/domain.hpp"
#include "analysis/persistence.hpp"
#include "ir/builder.hpp"
#include "ir/layout.hpp"

namespace ucp::analysis {
namespace {

using ir::Cond;
using ir::IrBuilder;
using ir::R;

// ---------------------------------------------------------------------------
// Abstract domain
// ---------------------------------------------------------------------------

TEST(AbstractSet, MustUpdateOnMissAgesEverything) {
  AbstractSet s(2);
  s.update_must(10);  // age 0
  s.update_must(20);  // 10 -> age 1, 20 -> age 0
  EXPECT_EQ(s.age_of(10), 1);
  EXPECT_EQ(s.age_of(20), 0);
  s.update_must(30);  // 10 evicted
  EXPECT_FALSE(s.contains(10));
  EXPECT_EQ(s.age_of(20), 1);
  EXPECT_EQ(s.age_of(30), 0);
}

TEST(AbstractSet, MustUpdateOnHitOnlyAgesYounger) {
  AbstractSet s(4);
  s.update_must(1);
  s.update_must(2);
  s.update_must(3);  // ages: 3->0, 2->1, 1->2
  s.update_must(1);  // hit at age 2: 3 and 2 age by one, 1 -> 0
  EXPECT_EQ(s.age_of(1), 0);
  EXPECT_EQ(s.age_of(3), 1);
  EXPECT_EQ(s.age_of(2), 2);
}

TEST(AbstractSet, MustJoinIsIntersectionWithMaxAge) {
  AbstractSet a(4), b(4);
  a.update_must(1);
  a.update_must(2);  // a: 2@0, 1@1
  b.update_must(3);
  b.update_must(1);  // b: 1@0, 3@1
  const AbstractSet j = AbstractSet::join_must(a, b);
  EXPECT_EQ(j.size(), 1u);        // only block 1 in both
  EXPECT_EQ(j.age_of(1), 1);      // max(1, 0)
  EXPECT_FALSE(j.contains(2));
  EXPECT_FALSE(j.contains(3));
}

TEST(AbstractSet, MayJoinIsUnionWithMinAge) {
  AbstractSet a(4), b(4);
  a.update_may(1);
  a.update_may(2);
  b.update_may(3);
  b.update_may(1);
  const AbstractSet j = AbstractSet::join_may(a, b);
  EXPECT_EQ(j.size(), 3u);
  EXPECT_EQ(j.age_of(1), 0);  // min(1, 0)
  EXPECT_TRUE(j.contains(2));
  EXPECT_TRUE(j.contains(3));
}

TEST(AbstractSet, MayUpdateAgesSameAgePeers) {
  AbstractSet s(2);
  s.update_may(1);
  // Merge in a peer at the same age via join.
  AbstractSet t(2);
  t.update_may(2);
  AbstractSet j = AbstractSet::join_may(s, t);  // both @0
  j.update_may(1);  // 1 -> 0; 2 shared age 0 -> pushed to 1
  EXPECT_EQ(j.age_of(1), 0);
  EXPECT_EQ(j.age_of(2), 1);
}

TEST(AbstractSet, MustEvictionBoundary) {
  // Property: a must-set never holds more than assoc blocks, and repeated
  // distinct accesses cycle everything out.
  for (std::uint8_t assoc : {1, 2, 4, 8}) {
    AbstractSet s(assoc);
    for (MemBlockId b = 0; b < 20; ++b) {
      s.update_must(b);
      EXPECT_LE(s.size(), static_cast<std::size_t>(assoc));
    }
    EXPECT_TRUE(s.contains(19));
    EXPECT_FALSE(s.contains(19 - assoc));
  }
}

TEST(AbstractCache, SetSelection) {
  const cache::CacheConfig config{2, 16, 256};  // 8 sets
  AbstractCache c(config);
  c.update_must(3);
  c.update_must(11);  // same set (11 % 8 == 3)
  EXPECT_TRUE(c.must_contain(3));
  EXPECT_TRUE(c.must_contain(11));
  EXPECT_EQ(c.set_for_block(3).age_of(3), 1);
  EXPECT_EQ(c.set_for_block(11).age_of(11), 0);
  c.update_must(19);  // third conflicting block evicts 3
  EXPECT_FALSE(c.must_contain(3));
}

TEST(AbstractCache, JoinRejectsDifferentGeometry) {
  AbstractCache a(cache::CacheConfig{2, 16, 256});
  AbstractCache b(cache::CacheConfig{2, 16, 512});
  EXPECT_THROW(AbstractCache::join_must(a, b), InvalidArgument);
}

// ---------------------------------------------------------------------------
// VIVU context graph
// ---------------------------------------------------------------------------

TEST(ContextGraph, StraightLineIsTrivial) {
  IrBuilder b("straight");
  b.movi(R(1), 1);
  b.halt();
  const ir::Program p = b.take();
  const ContextGraph g(p);
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_TRUE(g.edges().empty());
  EXPECT_EQ(g.exit_nodes().size(), 1u);
  EXPECT_TRUE(g.loop_instances().empty());
}

TEST(ContextGraph, SingleLoopPeelsFirstAndRest) {
  IrBuilder b("loop");
  b.for_range(R(1), 0, 5, [&] { b.nop(); });
  b.halt();
  const ir::Program p = b.take();
  const ContextGraph g(p);

  ASSERT_EQ(g.loop_instances().size(), 1u);
  const LoopInstance& inst = g.loop_instances()[0];
  EXPECT_EQ(inst.bound, 6u);
  EXPECT_NE(inst.first_node, kInvalidNode);
  EXPECT_NE(inst.rest_node, kInvalidNode);
  EXPECT_NE(inst.first_node, inst.rest_node);
  // first and rest instances of the header share the basic block.
  EXPECT_EQ(g.node(inst.first_node).block, g.node(inst.rest_node).block);
  EXPECT_FALSE(g.node(inst.first_node).ctx.back().rest);
  EXPECT_TRUE(g.node(inst.rest_node).ctx.back().rest);
}

TEST(ContextGraph, BoundOneLoopHasNoRestInstance) {
  IrBuilder b("once");
  b.do_while(1, [&] { b.nop(); }, Cond::kLt, R(1), R(0));
  b.halt();
  const ir::Program p = b.take();
  const ContextGraph g(p);
  ASSERT_EQ(g.loop_instances().size(), 1u);
  EXPECT_EQ(g.loop_instances()[0].rest_node, kInvalidNode);
}

TEST(ContextGraph, NestedLoopsComposeContexts) {
  IrBuilder b("nest");
  b.for_range(R(1), 0, 3, [&] {
    b.for_range(R(2), 0, 4, [&] { b.nop(); });
  });
  b.halt();
  const ir::Program p = b.take();
  const ContextGraph g(p);
  // outer first/rest, and inner first/rest within each -> 4 inner header
  // instances; loop_instances: 1 outer + 2 inner (per outer context).
  std::size_t inner = 0, outer = 0;
  for (const LoopInstance& inst : g.loop_instances()) {
    if (inst.parent_ctx.empty())
      ++outer;
    else
      ++inner;
  }
  EXPECT_EQ(outer, 1u);
  EXPECT_EQ(inner, 2u);
  // Max context depth is 2.
  std::size_t max_depth = 0;
  for (const CgNode& n : g.nodes()) max_depth = std::max(max_depth, n.ctx.size());
  EXPECT_EQ(max_depth, 2u);
}

TEST(ContextGraph, OnlyRestBackEdgesAreCyclic) {
  IrBuilder b("cyc");
  b.for_range(R(1), 0, 5, [&] { b.nop(); });
  b.halt();
  const ir::Program p = b.take();
  const ContextGraph g(p);
  std::size_t back = 0;
  for (const CgEdge& e : g.edges()) {
    if (e.back) {
      ++back;
      // back edges stay within REST contexts
      EXPECT_TRUE(g.node(e.to).ctx.back().rest);
      EXPECT_TRUE(g.node(e.from).ctx.back().rest);
    }
  }
  EXPECT_EQ(back, 1u);
  // Topological order covers all nodes (acyclic without back edges).
  EXPECT_EQ(g.topo_order().size(), g.num_nodes());
}

TEST(ContextGraph, BranchesShareContext) {
  IrBuilder b("br");
  b.for_range(R(1), 0, 3, [&] {
    b.if_then_else(Cond::kEq, R(1), R(2), [&] { b.nop(); },
                   [&] { b.nop(); });
  });
  b.halt();
  const ir::Program p = b.take();
  const ContextGraph g(p);
  // Every block of the loop body must exist in both FIRST and REST.
  std::map<ir::BlockId, std::set<bool>> seen;
  for (const CgNode& n : g.nodes())
    if (!n.ctx.empty()) seen[n.block].insert(n.ctx.back().rest);
  for (const auto& [block, variants] : seen)
    EXPECT_EQ(variants.size(), 2u) << "bb" << block;
}

// ---------------------------------------------------------------------------
// Must/may classification
// ---------------------------------------------------------------------------

const cache::CacheConfig kConfig{2, 16, 256};

TEST(CacheAnalysis, StraightLineFirstAccessMissesThenHits) {
  IrBuilder b("cls");
  for (int i = 0; i < 4; ++i) b.nop();  // one 16-byte block
  b.halt();
  const ir::Program p = b.take();
  const ir::Layout layout(p, kConfig.block_bytes);
  const ContextGraph g(p);
  const CacheAnalysisResult r = analyze_cache(g, layout, kConfig);

  EXPECT_EQ(r.classify(0, 0), Classification::kAlwaysMiss);  // cold
  for (std::size_t i = 1; i < 4; ++i)
    EXPECT_EQ(r.classify(0, i), Classification::kAlwaysHit);
}

TEST(CacheAnalysis, LoopBodyFirstMissRestHit) {
  IrBuilder b("loopcls");
  b.for_range(R(1), 0, 10, [&] { b.nops(6); });
  b.halt();
  const ir::Program p = b.take();
  const ir::Layout layout(p, kConfig.block_bytes);
  const ContextGraph g(p);
  const CacheAnalysisResult r = analyze_cache(g, layout, kConfig);

  // In REST contexts everything fits the cache: no always-miss left.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.node(v).ctx.empty() || !g.node(v).ctx.back().rest) continue;
    for (std::size_t i = 0; i < r.per_node[v].size(); ++i)
      EXPECT_EQ(r.classify(v, i), Classification::kAlwaysHit)
          << "node " << v << " instr " << i;
  }
  // And the FIRST iteration has at least one cold miss.
  std::size_t first_misses = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.node(v).ctx.empty() || g.node(v).ctx.back().rest) continue;
    for (std::size_t i = 0; i < r.per_node[v].size(); ++i)
      if (r.classify(v, i) == Classification::kAlwaysMiss) ++first_misses;
  }
  EXPECT_GT(first_misses, 0u);
}

TEST(CacheAnalysis, ConflictingLoopBodyStaysMissing) {
  // Loop body bigger than the whole cache: REST context still misses.
  IrBuilder b("big");
  b.for_range(R(1), 0, 5, [&] { b.nops(80); });  // 80*4 = 320B > 256B
  b.halt();
  const ir::Program p = b.take();
  const cache::CacheConfig direct{1, 16, 256};
  const ir::Layout layout(p, direct.block_bytes);
  const ContextGraph g(p);
  const CacheAnalysisResult r = analyze_cache(g, layout, direct);

  std::uint64_t rest_misses = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.node(v).ctx.empty() || !g.node(v).ctx.back().rest) continue;
    for (std::size_t i = 0; i < r.per_node[v].size(); ++i)
      if (r.classify(v, i) != Classification::kAlwaysHit) ++rest_misses;
  }
  EXPECT_GT(rest_misses, 0u);
}

TEST(CacheAnalysis, BranchDependentReuseIsNotClassified) {
  // In a loop whose body branches over conflicting code, a re-accessed
  // block can be cached on one incoming path and evicted on the other:
  // it must come out neither always-hit nor always-miss.
  IrBuilder b("joincls");
  b.for_range(R(1), 0, 6, [&] {
    b.if_then_else(
        Cond::kEq, R(1), R(0),
        [&] { b.nops(40); },  // 160B of conflicting code on this path only
        [&] { b.nop(); });
  });
  b.halt();
  const ir::Program p = b.take();
  const cache::CacheConfig tiny{1, 16, 128};  // 8 sets, direct-mapped
  const ir::Layout layout(p, tiny.block_bytes);
  const ContextGraph g(p);
  const CacheAnalysisResult r = analyze_cache(g, layout, tiny);
  EXPECT_GT(r.count(Classification::kNotClassified), 0u);
}

TEST(CacheAnalysis, PrefetchInstallsTargetInMust) {
  IrBuilder b("pfmust");
  b.nops(4);  // block 0
  b.nops(4);  // block 1
  b.halt();
  ir::Program p = b.take();
  // Prefetch block 2's first instruction (the halt block) from the start.
  const ir::InstrId target = p.block(p.entry()).instrs[8].id;
  ir::Instruction pf;
  pf.op = ir::Opcode::kPrefetch;
  pf.pf_target = target;
  p.insert(p.entry(), 1, pf);

  const ir::Layout layout(p, kConfig.block_bytes);
  const ContextGraph g(p);
  const CacheAnalysisResult r = analyze_cache(g, layout, kConfig);
  // The target instruction's fetch must now be always-hit.
  const auto loc = p.locate(target);
  EXPECT_EQ(r.classify(0, loc.index), Classification::kAlwaysHit);
}

TEST(CacheAnalysis, StateAccessorsBoundsChecked) {
  IrBuilder b("bounds");
  b.nop();
  b.halt();
  const ir::Program p = b.take();
  const ir::Layout layout(p, kConfig.block_bytes);
  const ContextGraph g(p);
  const CacheAnalysisResult r = analyze_cache(g, layout, kConfig);
  EXPECT_THROW(r.classify(99, 0), InvalidArgument);
  EXPECT_THROW(r.classify(0, 99), InvalidArgument);
  EXPECT_NO_THROW(r.state_in(0));
  EXPECT_NO_THROW(r.state_out(0));
}


// ---------------------------------------------------------------------------
// Persistence analysis (first-miss classification)
// ---------------------------------------------------------------------------

TEST(Persistence, FittingLoopBodyIsPersistent) {
  IrBuilder b("fit");
  b.for_range(R(1), 0, 10, [&] { b.nops(8); });
  b.halt();
  const ir::Program p = b.take();
  const ir::Layout layout(p, kConfig.block_bytes);
  const ContextGraph g(p);
  const PersistenceResult r = analyze_persistence(g, p, layout, kConfig);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (std::size_t i = 0; i < r.per_node[v].size(); ++i)
      EXPECT_TRUE(r.persistent(v, i)) << "node " << v << " instr " << i;
}

TEST(Persistence, ThrashingLoopBodyIsNot) {
  IrBuilder b("thrash");
  b.for_range(R(1), 0, 10, [&] { b.nops(80); });  // 320B on a 256B cache
  b.halt();
  const ir::Program p = b.take();
  const cache::CacheConfig direct{1, 16, 256};
  const ir::Layout layout(p, direct.block_bytes);
  const ContextGraph g(p);
  const PersistenceResult r = analyze_persistence(g, p, layout, direct);
  std::size_t non_persistent = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (std::size_t i = 0; i < r.per_node[v].size(); ++i)
      if (!r.persistent(v, i)) ++non_persistent;
  EXPECT_GT(non_persistent, 0u);
}

TEST(Persistence, GainIsNonNegativeAndBounded) {
  IrBuilder b("gain");
  b.for_range(R(1), 0, 6, [&] {
    b.if_then_else(
        Cond::kEq, R(1), R(0), [&] { b.nops(40); }, [&] { b.nop(); });
  });
  b.halt();
  const ir::Program p = b.take();
  const cache::CacheConfig tiny{1, 16, 128};
  const ir::Layout layout(p, tiny.block_bytes);
  const ContextGraph g(p);
  const std::size_t gain = persistence_gain(g, p, layout, tiny);
  std::size_t total = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    total += p.block(g.node(v).block).instrs.size();
  EXPECT_LE(gain, total);
}

TEST(Persistence, BoundsChecked) {
  IrBuilder b("pb");
  b.nop();
  b.halt();
  const ir::Program p = b.take();
  const ir::Layout layout(p, kConfig.block_bytes);
  const ContextGraph g(p);
  const PersistenceResult r = analyze_persistence(g, p, layout, kConfig);
  EXPECT_THROW(r.persistent(99, 0), InvalidArgument);
}

// ---------------------------------------------------------------------------
// SCC decomposition (the sparse fixpoint's driver structure)
// ---------------------------------------------------------------------------

// Nested loops give a graph with real (REST) cycles next to trivial nodes —
// the shape every invariant below has to hold on.
ir::Program nested_loop_program() {
  IrBuilder b("scc");
  b.for_range(R(1), 0, 5, [&] {
    b.nops(2);
    b.for_range(R(2), 0, 3, [&] { b.nop(); });
  });
  b.halt();
  return b.take();
}

TEST(ContextGraph, SccNumberingIsCondensationTopological) {
  const ContextGraph g(nested_loop_program());
  ASSERT_GT(g.scc_count(), 0u);

  // Every edge respects the condensation order; only back edges may close
  // a cycle, and they must stay inside one SCC.
  for (const CgEdge& e : g.edges()) {
    EXPECT_LE(g.scc_of(e.from), g.scc_of(e.to));
    if (e.back) {
      EXPECT_EQ(g.scc_of(e.from), g.scc_of(e.to));
    }
  }

  // scc_order/scc_begin partition the node set: each slice holds exactly
  // the nodes of its SCC, sorted by topo position (the intra-SCC worklist
  // priority), and every node appears exactly once.
  ASSERT_EQ(g.scc_begin().size(), g.scc_count() + 1);
  EXPECT_EQ(g.scc_begin().front(), 0u);
  EXPECT_EQ(g.scc_begin().back(), g.num_nodes());
  EXPECT_EQ(g.scc_order().size(), g.num_nodes());
  std::set<NodeId> seen;
  for (std::uint32_t s = 0; s < g.scc_count(); ++s) {
    for (std::uint32_t i = g.scc_begin()[s]; i < g.scc_begin()[s + 1]; ++i) {
      const NodeId v = g.scc_order()[i];
      EXPECT_EQ(g.scc_of(v), s);
      EXPECT_TRUE(seen.insert(v).second);
      if (i > g.scc_begin()[s]) {
        EXPECT_LT(g.topo_pos(g.scc_order()[i - 1]), g.topo_pos(v));
      }
    }
  }
  EXPECT_EQ(seen.size(), g.num_nodes());

  // scc_trivial iff single member without a self edge.
  for (std::uint32_t s = 0; s < g.scc_count(); ++s) {
    const std::uint32_t size = g.scc_begin()[s + 1] - g.scc_begin()[s];
    if (g.scc_trivial(s)) {
      EXPECT_EQ(size, 1u);
    }
  }

  // A nested-bound-5/bound-3 loop nest must produce at least one
  // non-trivial SCC (the REST instances), or the sparse driver would never
  // exercise its local-iteration path here.
  bool saw_cycle = false;
  for (std::uint32_t s = 0; s < g.scc_count(); ++s)
    saw_cycle |= !g.scc_trivial(s);
  EXPECT_TRUE(saw_cycle);
}

TEST(ContextGraph, AcyclicGraphHasOnlyTrivialSccs) {
  IrBuilder b("dag");
  b.nops(2);
  b.if_then_else(Cond::kEq, R(1), R(2), [&] { b.nop(); }, [&] { b.nops(2); });
  b.halt();
  const ContextGraph g(b.take());
  EXPECT_EQ(g.scc_count(), g.num_nodes());
  for (std::uint32_t s = 0; s < g.scc_count(); ++s)
    EXPECT_TRUE(g.scc_trivial(s));
  // With every SCC a singleton, condensation order degenerates to a strict
  // topological order on nodes.
  for (const CgEdge& e : g.edges())
    EXPECT_LT(g.scc_of(e.from), g.scc_of(e.to));
}

// ---------------------------------------------------------------------------
// Copy-on-write abstract cache states (the hash-consing substrate)
// ---------------------------------------------------------------------------

TEST(AbstractCache, CopySharesStorageUntilFirstWrite) {
  AbstractCache a(kConfig);
  a.update_must(3);
  a.update_may(7);

  AbstractCache b = a;  // refcount bump, no clone
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.content_hash(), b.content_hash());

  b.update_must(11);  // detach: writer clones, reader keeps its payload
  EXPECT_FALSE(a.shares_storage_with(b));
  EXPECT_TRUE(b.must_contain(11));
  EXPECT_FALSE(a.must_contain(11));
  EXPECT_TRUE(a.must_contain(3));

  // Divergent content shows up in the interner's key; re-equal content
  // compares equal again even without shared storage.
  EXPECT_NE(a, b);
  AbstractCache c(kConfig);
  c.update_must(3);
  c.update_may(7);
  EXPECT_FALSE(a.shares_storage_with(c));
  EXPECT_EQ(a, c);
  EXPECT_EQ(a.content_hash(), c.content_hash());
}

TEST(AbstractCache, SharedPayloadJoinIsIdentityFastPath) {
  AbstractCache a(kConfig);
  a.update_must(1);
  a.update_must(2);
  AbstractCache b = a;
  // join(x, x) = x: the pointer fast path must report "unchanged" and must
  // not detach either side.
  EXPECT_FALSE(b.join_must_with(a));
  EXPECT_FALSE(b.join_may_with(a));
  EXPECT_TRUE(a.shares_storage_with(b));

  // The same join through an equal-but-unshared state is still a no-op on
  // content (lfp independence of sharing), just without the O(1) witness.
  AbstractCache c(kConfig);
  c.update_must(1);
  c.update_must(2);
  EXPECT_FALSE(b.join_must_with(c));
  EXPECT_EQ(b, a);
}

TEST(AbstractCache, WriteAfterCopyClonesOneChunk) {
  // 8 KB direct-mapped: 512 sets, the widest state of the Table-2 grid.
  const cache::CacheConfig wide{1, 16, 8192};
  AbstractCache a(wide);
  for (MemBlockId b = 0; b < 2 * wide.num_sets(); ++b) {
    a.update_must(b);
    a.update_may(b);
  }

  AbstractCache b = a;
  const std::uint64_t before = AbstractCache::sets_copied_on_this_thread();
  b.update_must(5);
  const std::uint64_t copied =
      AbstractCache::sets_copied_on_this_thread() - before;
  EXPECT_GE(copied, 1u);
  EXPECT_LE(copied, AbstractCache::kSetsPerChunk);
  EXPECT_TRUE(b.must_contain(5));
  EXPECT_FALSE(a.must_contain(5));

  // A join that changes one set detaches only that set's chunk.
  AbstractCache c = a;
  const std::uint64_t before_join =
      AbstractCache::sets_copied_on_this_thread();
  EXPECT_TRUE(c.join_must_with(b));
  EXPECT_LE(AbstractCache::sets_copied_on_this_thread() - before_join,
            AbstractCache::kSetsPerChunk);
  EXPECT_FALSE(c.must_contain(5 + wide.num_sets()));
}

TEST(StatePool, RecyclesStorageOnlyWhileOpen) {
  // 64 sets: eight chunks per root.
  const cache::CacheConfig config{1, 16, 1024};
  using Counts = AbstractCache::StorageCounts;
  const Counts start = AbstractCache::storage_on_this_thread();
  {
    AbstractCache a(config);  // one root, one shared empty chunk
    a.update_must(1);         // a private copy of chunk 0
    const Counts live = AbstractCache::storage_on_this_thread();
    EXPECT_EQ(live.live_roots, start.live_roots + 1);
    EXPECT_EQ(live.live_chunks, start.live_chunks + 2);
  }
  // Without a pool, storage goes straight back to the allocator.
  EXPECT_EQ(AbstractCache::storage_on_this_thread(), start);

  {
    StatePool pool;
    {
      AbstractCache a(config);
      a.update_must(1);
    }
    Counts c = AbstractCache::storage_on_this_thread();
    EXPECT_EQ(c.live_roots, start.live_roots);
    EXPECT_EQ(c.retained_roots, 1u);
    EXPECT_EQ(c.retained_chunks, 2u);
    {
      StatePool nested;  // inert: the outer pool keeps recycling
      AbstractCache b(config);  // takes the freed root and a freed chunk
      c = AbstractCache::storage_on_this_thread();
      EXPECT_EQ(c.retained_roots, 0u);
      EXPECT_EQ(c.retained_chunks, 1u);
      AbstractCache d = b;
      d.update_may(2);  // detaches a root and a chunk
      EXPECT_TRUE(d.may_contain(2));
      EXPECT_FALSE(b.may_contain(2));
    }
    c = AbstractCache::storage_on_this_thread();
    EXPECT_EQ(c.live_roots, start.live_roots);
    EXPECT_EQ(c.live_chunks, start.live_chunks);
    EXPECT_EQ(c.retained_roots, 2u);  // survived the nested pool
    EXPECT_GE(c.retained_chunks, 2u);
  }
  // Closing the pool frees what it retained.
  EXPECT_EQ(AbstractCache::storage_on_this_thread(), start);
}

TEST(AbstractCacheDeathTest, CopyOnAnotherThreadAborts) {
#ifdef UCP_STATE_OWNER_CHECKED
  // The refcounts are not atomic, so a state may not be copied, written or
  // freed off the thread that made it; checked builds abort when it is.
  EXPECT_DEATH(
      {
        const AbstractCache a(kConfig);
        std::thread other([&a] { AbstractCache b = a; });
        other.join();
      },
      "shared across threads");
#else
  GTEST_SKIP() << "thread-confinement check compiled out (release build)";
#endif
}

TEST(AbstractCacheDeathTest, PooledStorageStaysPoisonedUnderAsan) {
#if defined(__SANITIZE_ADDRESS__)
  // A freed state's storage waits in the pool instead of going back to
  // malloc; AddressSanitizer must still see a read through a dangling
  // reference.
  EXPECT_DEATH(
      {
        StatePool pool;
        const AbstractSet* dangling = nullptr;
        {
          AbstractCache a(kConfig);
          a.update_must(1);
          dangling = &a.set_for_block(1);
        }
        std::printf("%zu\n", dangling->size());
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "not an AddressSanitizer build";
#endif
}

// ---------------------------------------------------------------------------
// Property: the chunked copy-on-write state behaves exactly like a flat
// vector of sets under any sequence of updates, joins and copies.
// ---------------------------------------------------------------------------

/// Reference model: one plain AbstractSet per cache set, no sharing.
struct FlatCache {
  explicit FlatCache(const cache::CacheConfig& config)
      : sets(config.num_sets(),
             AbstractSet(static_cast<std::uint8_t>(config.assoc))) {}
  AbstractSet& set_for(MemBlockId block) {
    return sets[block % sets.size()];
  }
  bool join_with(const FlatCache& other, bool must) {
    bool changed = false;
    for (std::size_t i = 0; i < sets.size(); ++i)
      changed |= must ? sets[i].join_must_with(other.sets[i])
                      : sets[i].join_may_with(other.sets[i]);
    return changed;
  }
  std::vector<AbstractSet> sets;
};

void expect_matches(const AbstractCache& c, const FlatCache& model) {
  ASSERT_EQ(c.num_sets(), model.sets.size());
  for (std::uint32_t i = 0; i < c.num_sets(); ++i)
    ASSERT_EQ(c.set_at(i), model.sets[i]) << "set " << i;
}

TEST(AbstractCache, MatchesFlatReferenceModel) {
  const std::vector<cache::CacheConfig> geometries = {
      {2, 16, 32},    // 1 set: one partial chunk
      {2, 16, 64},    // 2 sets
      {1, 16, 64},    // 4 sets
      {2, 16, 256},   // 8 sets: exactly one chunk
      {1, 16, 256},   // 16 sets
      {4, 16, 2048},  // 32 sets
      {1, 16, 8192},  // 512 sets
  };
  constexpr std::size_t kPool = 6;
  constexpr int kOps = 1500;
  for (const cache::CacheConfig& config : geometries) {
    for (std::uint32_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(config.to_string() + " seed " + std::to_string(seed));
      std::mt19937 rng(seed * 7919u + config.num_sets());
      const auto pick = [&rng](std::uint32_t n) {
        return std::uniform_int_distribution<std::uint32_t>(0, n - 1)(rng);
      };
      // Seeds 2 and 3 run with recycled storage: every state freed by an
      // assignment is reused by a later detach.
      std::optional<StatePool> pool;
      if (seed > 1) pool.emplace();
      // Few distinct blocks per set, so updates hit, age and evict.
      const std::uint32_t block_range =
          config.num_sets() * (config.assoc + 2);

      std::vector<AbstractCache> states(kPool, AbstractCache(config));
      std::vector<FlatCache> models(kPool, FlatCache(config));
      for (int op = 0; op < kOps; ++op) {
        const std::uint32_t i = pick(kPool);
        const std::uint32_t j = pick(kPool);
        switch (pick(6)) {
          case 0:
          case 1: {
            const MemBlockId b = pick(block_range);
            states[i].update_must(b);
            models[i].set_for(b).update_must(b);
            break;
          }
          case 2: {
            const MemBlockId b = pick(block_range);
            states[i].update_may(b);
            models[i].set_for(b).update_may(b);
            break;
          }
          case 3:
          case 4: {
            const bool must = pick(2) == 0;
            const AbstractCache before = states[i];
            const bool changed = must ? states[i].join_must_with(states[j])
                                      : states[i].join_may_with(states[j]);
            ASSERT_EQ(changed, models[i].join_with(models[j], must));
            // A join that changes nothing keeps all sharing intact.
            if (!changed) {
              ASSERT_TRUE(states[i].shares_storage_with(before));
            }
            break;
          }
          case 5:
            states[i] = states[j];
            models[i] = models[j];
            ASSERT_TRUE(states[i].shares_storage_with(states[j]));
            break;
        }
        expect_matches(states[i], models[i]);
        const bool equal = models[i].sets == models[j].sets;
        ASSERT_EQ(states[i] == states[j], equal);
        if (equal) {
          ASSERT_EQ(states[i].content_hash(), states[j].content_hash());
        }
      }
      for (std::size_t k = 0; k < kPool; ++k)
        expect_matches(states[k], models[k]);
    }
  }
}

}  // namespace
}  // namespace ucp::analysis
