// Two-timing group differential. In every (program, configuration) of the
// Table 2 grid whose two tech nodes derive different memory timings,
// exp::run_use_case_group runs one cache analysis per program state and
// one optimizer run with a lane per timing, the lanes sharing every trial
// they decide alike on. Each of its rows must equal a per-tech
// exp::run_use_case, which shares nothing across techs: every
// sweep_cache_row column, the outcome and the insertion list.
//
// 222 pairs on 4 threads (the heaviest: nsichneu at k32, k33, k35, k36).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "core/optimizer.hpp"
#include "energy/model.hpp"
#include "exp/harness.hpp"
#include "suite/suite.hpp"
#include "support/parallel.hpp"

namespace ucp::exp {
namespace {

constexpr std::uint32_t kThreads = 4;

/// Describes how `row` differs from the per-tech `ref`; empty when equal.
std::string row_difference(const UseCaseResult& row,
                           const UseCaseResult& ref) {
  if (sweep_cache_row(row) != sweep_cache_row(ref))
    return "row " + sweep_cache_row(row) + " vs " + sweep_cache_row(ref);
  if (row.outcome != ref.outcome || row.fail_stage != ref.fail_stage ||
      row.fail_code != ref.fail_code || row.fail_detail != ref.fail_detail)
    return "outcome " + row.fail_stage + " vs " + ref.fail_stage;
  const auto& a = row.report.insertions;
  const auto& b = ref.report.insertions;
  const bool same_insertions = std::equal(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const core::PrefetchRecord& x, const core::PrefetchRecord& y) {
        return x.prefetch_instr == y.prefetch_instr &&
               x.target_instr == y.target_instr && x.block == y.block &&
               x.profit_tau == y.profit_tau && x.slack == y.slack;
      });
  if (!same_insertions)
    return "insertions " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  return {};
}

TEST(LaneDifferential, TwoTimingGroupsMatchPerTechRows) {
  const std::vector<energy::TechNode> techs = {energy::TechNode::k45nm,
                                               energy::TechNode::k32nm};
  const auto& benchmarks = suite::all_benchmarks();
  const auto& configs = cache::paper_cache_configs();

  std::vector<std::unique_ptr<ProgramSystem>> systems(benchmarks.size());
  std::vector<ir::Program> programs;
  // The sweep's programs: the RISC-lowered form of each kernel.
  for (const suite::BenchmarkInfo& info : benchmarks)
    programs.push_back(suite::build_benchmark(info.name));
  support::parallel_for_index(
      programs.size(), kThreads, [&](std::size_t b, std::uint32_t) {
        systems[b] = std::make_unique<ProgramSystem>(programs[b]);
      });

  struct Pair {
    std::size_t program;
    std::size_t config;
  };
  std::vector<Pair> pairs;
  for (std::size_t b = 0; b < programs.size(); ++b)
    for (std::size_t c = 0; c < configs.size(); ++c)
      if (energy::derive_timing(configs[c].config, techs[0]) !=
          energy::derive_timing(configs[c].config, techs[1]))
        pairs.push_back({b, c});
  ASSERT_EQ(pairs.size(), 222u);
  // Largest programs first, so no heavy pair is claimed last.
  std::stable_sort(pairs.begin(), pairs.end(),
                   [&](const Pair& x, const Pair& y) {
                     return programs[x.program].instruction_count() >
                            programs[y.program].instruction_count();
                   });

  std::vector<std::vector<std::string>> failures(pairs.size());
  std::vector<std::size_t> lanes(pairs.size(), 0);
  std::vector<std::size_t> shared_trials(pairs.size(), 0);
  support::parallel_for_index(
      pairs.size(), kThreads, [&](std::size_t i, std::uint32_t) {
        const ir::Program& p = programs[pairs[i].program];
        const std::string& name = benchmarks[pairs[i].program].name;
        const cache::NamedCacheConfig& k = configs[pairs[i].config];
        const std::vector<UseCaseResult> group =
            run_use_case_group(p, name, k, techs, {}, nullptr,
                               &systems[pairs[i].program]->ipet,
                               /*audit_soundness=*/true);
        lanes[i] = group.front().report.lanes;
        shared_trials[i] = group.front().report.shared_trials;
        for (std::size_t t = 0; t < techs.size(); ++t) {
          const std::string d =
              row_difference(group[t], run_use_case(p, name, k, techs[t]));
          if (!d.empty())
            failures[i].push_back(name + "/" + k.id + "/" +
                                  energy::tech_name(techs[t]) + ": " + d);
        }
      });

  std::size_t failed = 0;
  for (const std::vector<std::string>& f : failures) {
    for (const std::string& line : f) ADD_FAILURE() << line;
    failed += f.size();
  }
  EXPECT_EQ(failed, 0u);
  // Vacuity guards: every pair ran as one optimizer call with two lanes,
  // and the lanes did share trials.
  EXPECT_EQ(std::count(lanes.begin(), lanes.end(), 2u),
            static_cast<std::ptrdiff_t>(pairs.size()));
  EXPECT_GT(std::accumulate(shared_trials.begin(), shared_trials.end(),
                            std::size_t{0}),
            0u);
}

}  // namespace
}  // namespace ucp::exp
