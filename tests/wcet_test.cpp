#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/cache_analysis.hpp"
#include "analysis/context_graph.hpp"
#include "core/optimizer.hpp"
#include "ir/builder.hpp"
#include "ir/layout.hpp"
#include "ir/verify.hpp"
#include "reference/ipet_ilp.hpp"
#include "reference/reference.hpp"
#include "sim/interpreter.hpp"
#include "suite/suite.hpp"
#include "wcet/certificate.hpp"
#include "wcet/ipet.hpp"

namespace ucp::wcet {
namespace {

using ir::Cond;
using ir::IrBuilder;
using ir::R;

const cache::CacheConfig kConfig{2, 16, 256};
const cache::MemTiming kTiming{1, 25, 25};

WcetResult analyze(const ir::Program& p,
                   const cache::CacheConfig& config = kConfig,
                   const cache::MemTiming& timing = kTiming) {
  const ir::Layout layout(p, config.block_bytes);
  const analysis::ContextGraph graph(p);
  const auto cls = analysis::analyze_cache(graph, layout, config);
  return compute_wcet(graph, cls, timing);
}

TEST(RefCycles, ClassificationToTime) {
  EXPECT_EQ(ref_cycles(analysis::Classification::kAlwaysHit, kTiming), 1u);
  EXPECT_EQ(ref_cycles(analysis::Classification::kAlwaysMiss, kTiming), 25u);
  EXPECT_EQ(ref_cycles(analysis::Classification::kNotClassified, kTiming),
            25u);
}

TEST(Ipet, StraightLineExactCount) {
  // 4 instructions in one block: 1 cold miss + 3 hits = 25 + 3.
  IrBuilder b("sl");
  b.movi(R(1), 1);
  b.movi(R(2), 2);
  b.movi(R(3), 3);
  b.halt();
  const WcetResult w = analyze(b.take());
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.tau_mem, 28u);
}

TEST(Ipet, BranchTakesWorstSide) {
  // One side of the branch spans more memory blocks -> it is the WCET path.
  IrBuilder b("branch");
  b.movi(R(1), 0);
  b.if_then_else(
      Cond::kEq, R(1), R(0), [&] { b.nop(); },
      [&] { b.nops(20); });  // heavier side
  b.halt();
  const ir::Program p = b.take();
  const WcetResult w = analyze(p);
  ASSERT_TRUE(w.ok());

  // The heavy block's node count must be 1, the light one's 0.
  const analysis::ContextGraph g(p);
  std::uint64_t heavy = 0, light = 0;
  for (analysis::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& bb = p.block(g.node(v).block);
    if (bb.instrs.size() >= 20) heavy = w.node_counts[v];
    if (bb.instrs.size() == 2 && bb.label.find("then") != std::string::npos)
      light = w.node_counts[v];
  }
  EXPECT_EQ(heavy, 1u);
  EXPECT_EQ(light, 0u);
}

TEST(Ipet, LoopCountsRespectBound) {
  IrBuilder b("loop");
  b.for_range(R(1), 0, 7, [&] { b.nop(); });
  b.halt();
  const ir::Program p = b.take();
  const WcetResult w = analyze(p);
  ASSERT_TRUE(w.ok());

  const analysis::ContextGraph g(p);
  ASSERT_EQ(g.loop_instances().size(), 1u);
  const auto& inst = g.loop_instances()[0];
  EXPECT_EQ(w.node_counts[inst.first_node], 1u);
  EXPECT_EQ(w.node_counts[inst.rest_node], 7u);  // bound 8 => rest = 7
}

TEST(Ipet, WcetIsSoundUpperBoundOnSimulation) {
  // For loop-dominated programs the static bound must dominate the
  // concrete memory time.
  IrBuilder b("sound");
  b.movi(R(3), 0);
  b.for_range(R(1), 0, 13, [&] {
    b.mul(R(2), R(1), R(1));
    b.add(R(3), R(3), R(2));
    b.store(R(1), 0, R(3));
  });
  b.halt();
  const ir::Program p = b.take();
  const WcetResult w = analyze(p);
  ASSERT_TRUE(w.ok());
  const sim::RunMetrics m = sim::run_program(p, kConfig, kTiming);
  EXPECT_GE(w.tau_mem, m.mem_cycles);
}

TEST(Ipet, NestedLoopMultipliesCounts) {
  IrBuilder b("nested");
  b.for_range(R(1), 0, 3, [&] {
    b.for_range(R(2), 0, 5, [&] { b.nop(); });
  });
  b.halt();
  const ir::Program p = b.take();
  const WcetResult w = analyze(p);
  ASSERT_TRUE(w.ok());

  // Total inner-body executions across contexts = 3 * 5 = 15.
  const analysis::ContextGraph g(p);
  std::uint64_t inner_body = 0;
  for (analysis::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& bb = p.block(g.node(v).block);
    if (bb.label.find("for.body") != std::string::npos &&
        g.node(v).ctx.size() == 2)
      inner_body += w.node_counts[v];
  }
  EXPECT_EQ(inner_body, 15u);
}

TEST(Ipet, AntiCirculationKeepsFlowConnected) {
  // Regression test for the disconnected-circulation pitfall: every node
  // with positive count must be reachable from the entry along edges with
  // positive flow.
  IrBuilder b("conn");
  b.for_range(R(1), 0, 5, [&] { b.nops(10); });
  b.halt();
  const ir::Program p = b.take();
  const analysis::ContextGraph g(p);
  const ir::Layout layout(p, kConfig.block_bytes);
  const auto cls = analysis::analyze_cache(g, layout, kConfig);
  const WcetResult w = compute_wcet(g, cls, kTiming);
  ASSERT_TRUE(w.ok());

  std::vector<bool> reach(g.num_nodes(), false);
  std::vector<analysis::NodeId> work{g.entry_node()};
  reach[g.entry_node()] = true;
  while (!work.empty()) {
    const auto v = work.back();
    work.pop_back();
    for (std::uint32_t ei : g.out_edges(v)) {
      if (w.edge_counts[ei] == 0) continue;
      const auto to = g.edges()[ei].to;
      if (!reach[to]) {
        reach[to] = true;
        work.push_back(to);
      }
    }
  }
  for (analysis::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (w.node_counts[v] > 0) {
      EXPECT_TRUE(reach[v]) << "node " << v;
    }
  }
}

TEST(Ipet, TauOfAccessor) {
  IrBuilder b("tau");
  b.movi(R(1), 1);
  b.halt();
  const ir::Program p = b.take();
  const WcetResult w = analyze(p);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.tau_of(0, 0), 25u);  // miss * count 1
  EXPECT_EQ(w.tau_of(0, 1), 1u);   // hit * count 1
}

TEST(Ipet, FixedCountReplayMatchesObjective) {
  IrBuilder b("replay");
  b.for_range(R(1), 0, 9, [&] { b.nops(3); });
  b.halt();
  const ir::Program p = b.take();
  const analysis::ContextGraph g(p);
  const ir::Layout layout(p, kConfig.block_bytes);
  const auto cls = analysis::analyze_cache(g, layout, kConfig);
  const WcetResult w = compute_wcet(g, cls, kTiming);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(tau_with_fixed_counts(g, cls, kTiming, w.node_counts), w.tau_mem);
}

TEST(Ipet, HigherMissPenaltyRaisesTau) {
  IrBuilder b("penalty");
  b.for_range(R(1), 0, 4, [&] { b.nops(2); });
  b.halt();
  const ir::Program p = b.take();
  const WcetResult cheap = analyze(p, kConfig, cache::MemTiming{1, 10, 10});
  const WcetResult steep = analyze(p, kConfig, cache::MemTiming{1, 50, 50});
  ASSERT_TRUE(cheap.ok());
  ASSERT_TRUE(steep.ok());
  EXPECT_GT(steep.tau_mem, cheap.tau_mem);
}

class SuiteBoundednessTest : public ::testing::TestWithParam<const char*> {};

/// Property over real kernels: τ_w upper-bounds the simulated memory time.
TEST_P(SuiteBoundednessTest, TauDominatesSimulation) {
  const ir::Program p = suite::build_benchmark(GetParam());
  const WcetResult w = analyze(p);
  ASSERT_TRUE(w.ok());
  const sim::RunMetrics m = sim::run_program(p, kConfig, kTiming);
  EXPECT_GE(w.tau_mem, m.mem_cycles) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Kernels, SuiteBoundednessTest,
                         ::testing::Values("crc", "fdct", "matmult",
                                           "insertsort", "bs", "fir",
                                           "cover", "whet"));


// ---------------------------------------------------------------------------
// Brute-force oracle: for loop-free programs, enumerate every path,
// simulate the cache exactly along each, and take the maximum memory time.
// IPET with classification-based t_w must upper-bound that oracle (it is
// sound), and must not exceed the all-miss bound (it is not absurd).
// ---------------------------------------------------------------------------

namespace {

std::uint64_t oracle_max_path_time(const ir::Program& p,
                                   const cache::CacheConfig& config,
                                   const cache::MemTiming& timing) {
  const ir::Layout layout(p, config.block_bytes);
  struct Frame {
    ir::BlockId bb;
    std::vector<std::vector<cache::MemBlockId>> sets;  // MRU-first
    std::uint64_t time;
  };
  auto access = [&](Frame& f, cache::MemBlockId blk) {
    auto& set = f.sets[config.set_of(blk)];
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (set[i] == blk) {
        set.erase(set.begin() + static_cast<std::ptrdiff_t>(i));
        set.insert(set.begin(), blk);
        f.time += timing.hit_cycles;
        return;
      }
    }
    if (set.size() == config.assoc) set.pop_back();
    set.insert(set.begin(), blk);
    f.time += timing.miss_cycles;
  };

  std::uint64_t best = 0;
  std::vector<Frame> stack;
  stack.push_back(Frame{p.entry(),
                        std::vector<std::vector<cache::MemBlockId>>(
                            config.num_sets()),
                        0});
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    const ir::BasicBlock& bb = p.block(f.bb);
    for (const ir::Instruction& in : bb.instrs)
      access(f, layout.mem_block(in.id));
    if (bb.succs.empty()) {
      best = std::max(best, f.time);
      continue;
    }
    for (ir::BlockId s : bb.succs) {
      Frame next = f;
      next.bb = s;
      stack.push_back(std::move(next));
    }
  }
  return best;
}

ir::Program branchy_program(int seed) {
  using ir::Cond;
  ir::IrBuilder b("branchy" + std::to_string(seed));
  b.movi(R(1), seed);
  for (int level = 0; level < 4; ++level) {
    b.if_then_else(
        Cond::kEq, R(1), R(0),
        [&] { b.nops(static_cast<std::size_t>(3 + (seed + level * 7) % 9)); },
        [&] { b.nops(static_cast<std::size_t>(1 + (seed * 3 + level) % 11)); });
  }
  b.halt();
  return b.take();
}

}  // namespace

class OracleTest : public ::testing::TestWithParam<int> {};

TEST_P(OracleTest, IpetUpperBoundsExhaustivePathEnumeration) {
  const ir::Program p = branchy_program(GetParam());
  for (const cache::CacheConfig& config :
       {cache::CacheConfig{1, 16, 64}, cache::CacheConfig{2, 16, 128},
        cache::CacheConfig{2, 16, 256}}) {
    const WcetResult w = analyze(p, config, kTiming);
    ASSERT_TRUE(w.ok());
    const std::uint64_t oracle = oracle_max_path_time(p, config, kTiming);
    EXPECT_GE(w.tau_mem, oracle)
        << "seed " << GetParam() << " cache " << config.to_string();
    // Sanity ceiling: tau cannot exceed every static reference missing.
    const std::uint64_t all_miss =
        p.instruction_count() * kTiming.miss_cycles;
    EXPECT_LE(w.tau_mem, all_miss);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleTest, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// The structural engine vs both ILP solvers on hand-built loop shapes. Each
// shape is checked under the real cache classification and under two
// synthetic ones that weight the FIRST and REST copies of a block
// differently, so they pull the longest path different ways. Ties are
// possible under synthetic weights, so the engine's counts are checked as
// a feasible flow that reproduces τ rather than against the solvers'.
// ---------------------------------------------------------------------------

/// A raw CFG under construction: blocks of `nops` nops plus a terminator.
class Cfg {
 public:
  explicit Cfg(const std::string& name) : p_(name) {}

  ir::BlockId block(std::size_t nops) {
    const ir::BlockId id = p_.add_block("b" + std::to_string(p_.num_blocks()));
    for (std::size_t i = 0; i < nops; ++i) p_.append(id, op(ir::Opcode::kNop));
    return id;
  }
  void jump(ir::BlockId from, ir::BlockId to) {
    p_.append(from, op(ir::Opcode::kJump));
    p_.block(from).succs = {to};
  }
  void branch(ir::BlockId from, ir::BlockId taken, ir::BlockId not_taken) {
    ir::Instruction br = op(ir::Opcode::kBranchImm);
    br.rs1 = 1;
    br.cond = Cond::kEq;
    p_.append(from, br);
    p_.block(from).succs = {taken, not_taken};
  }
  void halt(ir::BlockId b) { p_.append(b, op(ir::Opcode::kHalt)); }
  void bound(ir::BlockId header, std::uint32_t n) {
    p_.set_loop_bound(header, n);
  }

  /// Entry is the first block made.
  ir::Program take() {
    p_.set_entry(0);
    const auto problems = ir::verify(p_);
    EXPECT_TRUE(problems.empty()) << problems.front();
    return p_;
  }

 private:
  static ir::Instruction op(ir::Opcode code) {
    ir::Instruction in;
    in.op = code;
    return in;
  }
  ir::Program p_;
};

void expect_engine_matches_solvers(const ir::Program& p) {
  const analysis::ContextGraph graph(p);
  const IpetSystem system(graph);
  for (const cache::CacheConfig& config :
       {cache::CacheConfig{1, 16, 64}, cache::CacheConfig{2, 16, 256}}) {
    const ir::Layout layout(p, config.block_bytes);
    const auto real = analysis::analyze_cache(graph, layout, config);
    // Synthetic weights: a per-(node, instruction) pattern of hits and
    // misses, distinct across the contexts of one block, and a "warm
    // FIRST" one (innermost-FIRST nodes hit, all else misses) under which
    // a circulation detached from the REST entry would pay off.
    analysis::CacheAnalysisResult hashed = real;
    analysis::CacheAnalysisResult warm_first = real;
    for (analysis::NodeId v = 0; v < graph.num_nodes(); ++v) {
      const analysis::Context& ctx = graph.node(v).ctx;
      for (std::size_t i = 0; i < hashed.per_node[v].size(); ++i) {
        hashed.per_node[v][i] = (v * 7 + i * 3) % 5 < 2
                                    ? analysis::Classification::kAlwaysMiss
                                    : analysis::Classification::kAlwaysHit;
        warm_first.per_node[v][i] = !ctx.empty() && !ctx.back().rest
                                        ? analysis::Classification::kAlwaysHit
                                        : analysis::Classification::kAlwaysMiss;
      }
    }
    const analysis::CacheAnalysisResult* const all[] = {&real, &hashed,
                                                        &warm_first};
    for (const analysis::CacheAnalysisResult* cls : all) {
      const WcetResult engine = system.solve(*cls, kTiming);
      ASSERT_TRUE(engine.ok()) << p.name() << ": " << engine.status.message();
      EXPECT_EQ(certificate_violation(graph, engine,
                                      make_certificate(graph, engine)),
                "")
          << p.name() << " " << config.to_string();
      const WcetResult sparse = reference::solve_ipet_ilp(graph, *cls, kTiming);
      ASSERT_TRUE(sparse.ok()) << p.name();
      const ilp::Solution dense = reference::solve_ilp_dense_reference(
          reference::ipet_model(graph, *cls, kTiming));
      ASSERT_EQ(dense.status, ilp::SolveStatus::kOptimal) << p.name();
      EXPECT_EQ(engine.tau_mem, sparse.tau_mem)
          << p.name() << " " << config.to_string();
      EXPECT_EQ(engine.tau_mem,
                static_cast<std::uint64_t>(std::llround(dense.objective)))
          << p.name() << " " << config.to_string();
    }
  }
}

class StructuralBoundTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StructuralBoundTest, SimpleLoopMatchesSolvers) {
  // entry -> H; H: body | exit; body -> H. Bound 1 has no REST node,
  // bound 2 a REST node without back edges, bound >= 3 both.
  Cfg g("loop_bound" + std::to_string(GetParam()));
  const auto entry = g.block(2), h = g.block(1), body = g.block(9),
             exit = g.block(3);
  g.jump(entry, h);
  g.branch(h, body, exit);
  g.jump(body, h);
  g.halt(exit);
  g.bound(h, GetParam());
  const ir::Program p = g.take();
  const analysis::ContextGraph graph(p);
  ASSERT_EQ(graph.loop_instances().size(), 1u);
  EXPECT_EQ(graph.loop_instances()[0].rest_node == analysis::kInvalidNode,
            GetParam() < 2);
  expect_engine_matches_solvers(p);
}

TEST_P(StructuralBoundTest, SelfLoopMatchesSolvers) {
  // A one-block loop: the header is its own latch.
  Cfg g("self_loop" + std::to_string(GetParam()));
  const auto entry = g.block(1), h = g.block(7), exit = g.block(2);
  g.jump(entry, h);
  g.branch(h, h, exit);
  g.halt(exit);
  g.bound(h, GetParam());
  expect_engine_matches_solvers(g.take());
}

INSTANTIATE_TEST_SUITE_P(Bounds, StructuralBoundTest,
                         ::testing::Values(1u, 2u, 3u, 7u));

TEST(Structural, LoopWithoutAnExitIsDeadCode) {
  // entry: h | exit; h -> h, never leaving. The verifier accepts it, no
  // flow can enter h, and the certificate must still price h's contexts,
  // which have no path to a halt node.
  Cfg g("dead_loop");
  const auto entry = g.block(2), h = g.block(5), exit = g.block(3);
  g.branch(entry, h, exit);
  g.jump(h, h);
  g.halt(exit);
  g.bound(h, 4);
  expect_engine_matches_solvers(g.take());
}

TEST(Structural, LoopWithTwoLatches) {
  Cfg g("two_latches");
  const auto entry = g.block(1), h = g.block(2), a = g.block(1),
             l1 = g.block(12), l2 = g.block(4), exit = g.block(2);
  g.jump(entry, h);
  g.branch(h, a, exit);
  g.branch(a, l1, l2);
  g.jump(l1, h);
  g.jump(l2, h);
  g.halt(exit);
  g.bound(h, 5);
  expect_engine_matches_solvers(g.take());
}

TEST(Structural, ExitsFromFirstAndRestBodies) {
  // The body leaves the loop mid-way into a heavy block, from the FIRST
  // and from the REST copy alike, beside the header's normal exit.
  Cfg g("body_exits");
  const auto entry = g.block(1), h = g.block(1), b = g.block(3),
             c = g.block(6), side = g.block(20), join = g.block(1),
             exit = g.block(2);
  g.jump(entry, h);
  g.branch(h, b, join);
  g.branch(b, c, side);
  g.jump(c, h);
  g.jump(side, exit);
  g.jump(join, exit);
  g.halt(exit);
  g.bound(h, 4);
  expect_engine_matches_solvers(g.take());
}

TEST(Structural, HaltInsideLoopBody) {
  Cfg g("halt_in_loop");
  const auto entry = g.block(1), h = g.block(1), b = g.block(2),
             stop = g.block(30), latch = g.block(5), exit = g.block(1);
  g.jump(entry, h);
  g.branch(h, b, exit);
  g.branch(b, stop, latch);
  g.halt(stop);
  g.jump(latch, h);
  g.halt(exit);
  g.bound(h, 6);
  expect_engine_matches_solvers(g.take());
}

TEST(Structural, BreakOutOfTwoLoopLevels) {
  Cfg g("double_break");
  const auto entry = g.block(1), outer = g.block(1), inner = g.block(1),
             body = g.block(4), brk = g.block(25), inner_latch = g.block(3),
             outer_latch = g.block(2), exit = g.block(1);
  g.jump(entry, outer);
  g.branch(outer, inner, exit);
  g.branch(inner, body, outer_latch);
  g.branch(body, brk, inner_latch);
  g.jump(brk, exit);  // leaves both loops at once
  g.jump(inner_latch, inner);
  g.jump(outer_latch, outer);
  g.halt(exit);
  g.bound(outer, 3);
  g.bound(inner, 4);
  expect_engine_matches_solvers(g.take());
}

TEST(Structural, ThreeDeepNest) {
  // Three nested loops; the innermost body may also continue the middle
  // loop directly, skipping its own latch.
  Cfg g("three_deep");
  const auto entry = g.block(1), l1 = g.block(1), l2 = g.block(2),
             l3 = g.block(1), b3 = g.block(6), latch3 = g.block(2),
             latch2 = g.block(3), latch1 = g.block(1), exit = g.block(2);
  g.jump(entry, l1);
  g.branch(l1, l2, exit);
  g.branch(l2, l3, latch1);
  g.branch(l3, b3, latch2);
  g.branch(b3, latch3, l2);
  g.jump(latch3, l3);
  g.jump(latch2, l2);
  g.jump(latch1, l1);
  g.halt(exit);
  g.bound(l1, 3);
  g.bound(l2, 2);
  g.bound(l3, 4);
  expect_engine_matches_solvers(g.take());
}

TEST(Structural, SuiteKernelsMatchSolvers) {
  for (const char* name : {"bs", "crc", "fdct", "insertsort", "cover"})
    expect_engine_matches_solvers(suite::build_benchmark(name));
}

// ---------------------------------------------------------------------------
// The tie rule and the engine's failure channel.
// ---------------------------------------------------------------------------

/// Eight iterations around a diamond whose arms weigh the same in the REST
/// context (in FIRST the longer arm's cold misses decide). `flip` swaps the
/// branch's successors and inverts its condition: the program computes the
/// same, but ContextGraph numbers the arms' edges into the join the other
/// way round.
ir::Program tied_diamond(bool flip) {
  IrBuilder b(flip ? "tied_diamond_flipped" : "tied_diamond");
  b.movi(R(2), 0);
  b.nop();
  b.for_range(R(1), 0, 8, [&] {
    b.if_then_else(
        Cond::kEq, R(1), R(2), [&] { b.nops(11); }, [&] { b.nops(12); });
    b.nops(2);
  });
  b.halt();
  ir::Program p = b.take();
  if (flip) {
    for (ir::BlockId id = 0; id < p.num_blocks(); ++id) {
      ir::BasicBlock& bb = p.block(id);
      if (bb.succs.size() == 2 &&
          p.block(bb.succs[0]).label.find("then") != std::string::npos) {
        std::swap(bb.succs[0], bb.succs[1]);
        bb.instrs.back().cond = Cond::kNe;
      }
    }
    EXPECT_TRUE(ir::verify(p).empty());
  }
  return p;
}

const cache::CacheConfig kTieConfig{1, 16, 128};
const cache::MemTiming kTieTiming{1, 20, 20};

TEST(Ipet, EqualArmsGoToTheLowestEdgeIndex) {
  std::vector<std::string> chosen;
  for (const bool flip : {false, true}) {
    SCOPED_TRACE(flip ? "flipped" : "as built");
    const ir::Program p = tied_diamond(flip);
    const analysis::ContextGraph g(p);
    const ir::Layout layout(p, kTieConfig.block_bytes);
    const auto cls = analysis::analyze_cache(g, layout, kTieConfig);
    const WcetResult w = IpetSystem(g).solve(cls, kTieTiming);
    ASSERT_TRUE(w.ok()) << w.status.message();
    EXPECT_EQ(wcet::ipet_flow_violation(g, w), "");
    EXPECT_EQ(w.tau_mem, reference::solve_ipet_ilp(g, cls, kTieTiming).tau_mem);

    // The REST copy of the join has one in-edge per arm, and the arms
    // weigh the same: a tie, which the lower edge index wins.
    analysis::NodeId join = analysis::kInvalidNode;
    for (analysis::NodeId v = 0; v < g.num_nodes(); ++v)
      if (p.block(g.node(v).block).label.find("join") != std::string::npos &&
          g.node(v).ctx.back().rest)
        join = v;
    ASSERT_NE(join, analysis::kInvalidNode);
    ASSERT_EQ(g.in_edges(join).size(), 2u);
    const std::uint32_t lo =
        std::min(g.in_edges(join)[0], g.in_edges(join)[1]);
    const std::uint32_t hi =
        std::max(g.in_edges(join)[0], g.in_edges(join)[1]);
    auto weight = [&](std::uint32_t edge) {
      std::uint64_t sum = 0;
      for (std::uint32_t c : w.ref_cycles[g.edges()[edge].from]) sum += c;
      return sum;
    };
    ASSERT_EQ(weight(lo), weight(hi));
    EXPECT_EQ(w.edge_counts[lo], 7u);
    EXPECT_EQ(w.edge_counts[hi], 0u);
    chosen.push_back(p.block(g.node(g.edges()[lo].from).block).label);
  }
  // Flipping the edge order hands the tie to the other arm.
  EXPECT_NE(chosen[0], chosen[1]);
}

TEST(Ipet, TheoremOneHoldsWhicheverTiedArmThePathTakes) {
  // The optimizer's profit test runs on the counts of the arm the tie
  // rule picked; its final audit re-solves, so τ_w never grows either way.
  for (const bool flip : {false, true}) {
    SCOPED_TRACE(flip ? "flipped" : "as built");
    const ir::Program p = tied_diamond(flip);
    const core::OptimizationResult opt =
        core::optimize_prefetches(p, kTieConfig, kTieTiming);
    ASSERT_EQ(opt.report.code, ErrorCode::kOk) << opt.report.detail;
    EXPECT_FALSE(opt.report.insertions.empty());
    EXPECT_LE(opt.report.tau_optimized, opt.report.tau_original);

    // Re-derived by the ILP oracle on the optimized program.
    const analysis::ContextGraph g(p);
    const ir::Layout layout(opt.program, kTieConfig.block_bytes);
    const auto cls =
        analysis::analyze_cache(g, opt.program, layout, kTieConfig);
    const WcetResult oracle = reference::solve_ipet_ilp(g, cls, kTieTiming);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(oracle.tau_mem, opt.report.tau_optimized);
  }
}

TEST(Ipet, OverflowIsAnInternalError) {
  // Three nested loops of 2^21 trips run the innermost body about 2^63
  // times: τ_w does not fit in 64 bits, and the engine says so rather than
  // wrapping around.
  IrBuilder b("overflow");
  b.for_range(R(1), 0, 1 << 21, [&] {
    b.for_range(R(2), 0, 1 << 21, [&] {
      b.for_range(R(3), 0, 1 << 21, [&] { b.nops(4); });
    });
  });
  b.halt();
  const WcetResult w = analyze(b.take());
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(w.status.code(), ErrorCode::kInternal);
  EXPECT_NE(w.status.detail().find("overflow"), std::string::npos)
      << w.status.message();
  EXPECT_EQ(w.tau_mem, 0u);
  EXPECT_TRUE(w.node_counts.empty());
}

}  // namespace
}  // namespace ucp::wcet
