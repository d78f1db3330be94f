// Ablation — why the joint improvement criterion matters. Runs a reduced
// sweep under three acceptance rules:
//   profit       the paper's criterion (Δτ_w > 0, effectiveness enforced)
//   no-effect    profit without the Definition-10 effectiveness test
//   always       accept every surviving candidate unchecked
// and reports WCET/ACET/energy ratios plus Theorem-1 violations caught by
// the final audit (the 'always' rule must rely on the audit to stay safe).

#include <iostream>

#include "bench_common.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace ucp;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::ObsSession obs_session(args);

  struct Variant {
    std::string name;
    core::OptimizerOptions options;
  };
  std::vector<Variant> variants;
  {
    Variant v;
    v.name = "profit (paper)";
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "no effectiveness";
    v.options.require_effectiveness = false;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "always accept";
    v.options.accept_rule = core::AcceptRule::kAlways;
    variants.push_back(v);
  }

  std::cout << "Ablation of the joint improvement criterion (Section 4.3)\n";
  // A reduced but representative grid keeps the three-way sweep affordable.
  exp::SweepOptions sweep = args.sweep();
  // Each variant runs a *different* optimizer; its selection fingerprint
  // would reset the default sweep's shared journal.
  sweep.journal_path.clear();
  if (sweep.programs.empty())
    sweep.programs = {"fdct", "jfdctint", "minver", "adpcm", "cover",
                      "statemate", "crc", "ndes", "whet", "ludcmp"};
  if (!args.fast) sweep.config_stride = 4;
  sweep.techs = {energy::TechNode::k32nm};

  TextTable table({"acceptance rule", "cases", "energy impr.", "ACET impr.",
                   "WCET impr.", "prefetches", "audits reverted"});
  std::vector<std::pair<std::string, exp::SweepReport>> reports;
  for (const Variant& v : variants) {
    exp::SweepOptions s = sweep;
    s.optimizer = v.options;
    const exp::Sweep out = exp::run_sweep(s);
    const auto& results = out.results;
    reports.emplace_back(v.name, out.report);
    const auto grand = exp::aggregate_all(results);
    std::size_t prefetches = 0, reverted = 0;
    for (const auto& r : results) {
      prefetches += r.report.insertions.size();
      if (r.report.reverted) ++reverted;
    }
    table.add_row({v.name, std::to_string(grand.cases),
                   bench::pct_improvement(grand.mean_energy_ratio),
                   bench::pct_improvement(grand.mean_acet_ratio),
                   bench::pct_improvement(grand.mean_wcet_ratio),
                   std::to_string(prefetches), std::to_string(reverted)});
  }
  table.print(std::cout);
  std::cout << "\n'audits reverted' counts use cases where the final fresh-"
               "IPET audit had to roll back all insertions to preserve the "
               "WCET guarantee: the paper criterion needs this rarely (only "
               "when the fixed-counts Delta-tau mispredicts a worst-case "
               "path switch), 'always accept' leans on it heavily.\n";

  std::cout << "\n";
  for (const auto& [name, report] : reports) {
    std::cout << name << ": ";
    report.print(std::cout);
  }
  return 0;
}
