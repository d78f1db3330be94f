// Figure 7 — WCET reduction per use case at 32nm (Inequation 12): the
// per-case scatter of tau_w(optimized)/tau_w(original) over all programs
// and all 36 configurations. Theorem 1 demands every single ratio <= 1.

#include <iostream>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace ucp;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::ObsSession obs_session(args);

  std::cout << "Figure 7: per-use-case WCET ratio at 32nm "
               "(Inequation 12)\n\n";
  // The same two-tech sweep as the other figure benches, so they share one
  // journal; the figure keeps the 32nm rows.
  const exp::Sweep sweep = exp::run_sweep(args.sweep());
  std::vector<exp::UseCaseResult> results;
  for (const exp::UseCaseResult& r : sweep.results)
    if (r.tech == energy::TechNode::k32nm) results.push_back(r);

  // Per-program distribution of ratios over the 36 configurations.
  std::map<std::string, SampleSet> per_program;
  std::size_t violations = 0;
  for (const auto& r : results) {
    per_program[r.program].add(r.wcet_ratio());
    if (r.wcet_ratio() > 1.0 + 1e-9) ++violations;
  }

  TextTable table({"program", "cases", "min ratio", "median", "max ratio"});
  for (const auto& [name, samples] : per_program) {
    table.add_row({name, std::to_string(samples.size()),
                   format_double(samples.min(), 4),
                   format_double(samples.median(), 4),
                   format_double(samples.max(), 4)});
  }
  table.print(std::cout);

  SampleSet all;
  for (const auto& r : results) all.add(r.wcet_ratio());
  std::cout << "\nall " << all.size()
            << " use cases: min " << format_double(all.min(), 4)
            << ", mean " << format_double(all.mean(), 4) << ", max "
            << format_double(all.max(), 4) << "\n";
  std::cout << "Theorem 1 violations (ratio > 1): " << violations
            << (violations == 0 ? "  -- guarantee holds" : "  -- BROKEN")
            << "\n";

  if (args.csv) {
    std::cout << "\ncsv:\nprogram,config,wcet_ratio\n";
    CsvWriter csv(std::cout);
    for (const auto& r : results)
      csv.write_row({r.program, r.config_id,
                     format_double(r.wcet_ratio(), 6)});
  }

  std::cout << "\n";
  sweep.report.print(std::cout);
  return violations == 0 ? 0 : 1;
}
