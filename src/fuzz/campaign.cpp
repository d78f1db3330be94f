#include "fuzz/campaign.hpp"

#include <algorithm>
#include <iostream>
#include <mutex>
#include <sstream>
#include <vector>

#include "energy/model.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/shrink.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "support/fault_injection.hpp"
#include "support/parallel.hpp"
#include "support/record_log.hpp"
#include "support/rng.hpp"

namespace ucp::fuzz {

namespace {

using support::fnv1a;
using support::to_hex;

/// Compute-path sites crossed with the oracles when fault_every > 0.
/// exp.* and io.* sites are NOT on check_program's path; every site here
/// degrades the case to an explained skip or an identity optimization —
/// except fuzz.oracle, which forces a (replayable, explained) violation.
const std::vector<std::string>& cross_fault_sites() {
  static const std::vector<std::string> sites = {
      "sim.step",    "wcet.solve", "core.reanalyze", "core.cancel",
      "gen.build",   "fuzz.oracle",
  };
  return sites;
}

/// The paper cache configuration a case runs under.
const cache::NamedCacheConfig& case_config(const CampaignOptions& options,
                                           std::uint32_t index) {
  const auto& grid = cache::paper_cache_configs();
  if (options.config_rotation == 0) return cache::paper_cache_config("k7");
  const std::size_t i =
      (static_cast<std::size_t>(index) * options.config_rotation) %
      grid.size();
  return grid[i];
}

// --- campaign journal -------------------------------------------------------
// A RecordLog whose header binds the root seed and the options that affect
// verdicts, then one checksummed verdict line per finished case. The header
// deliberately EXCLUDES the case count: seeds derive from
// split_seed(root, index), so a 200-case journal resumes seamlessly into a
// 1000-case run of the same campaign. v2: rows are `<verdict>,<checksum>`
// RecordLog records (v1 separated the checksum with a tab).

support::RecordLog::Format journal_format(const CampaignOptions& options) {
  std::ostringstream os;
  os << " seed=" << to_hex(options.seed)
     << " rotation=" << options.config_rotation
     << " fault_every=" << options.fault_every;
  // Only sharded campaigns name their slice, so unsharded journals keep
  // resuming unchanged.
  if (options.shard_count > 1)
    os << " shard=" << options.shard_index << "/" << options.shard_count;
  return {"ucp-fuzz-journal", 2, os.str(),
          "campaign options changed since last run"};
}

}  // namespace

std::string CaseVerdict::line() const {
  std::ostringstream os;
  os << "case " << index << " seed=" << to_hex(case_seed)
     << " config=" << config_id
     << " fault=" << (fault_site.empty() ? "-" : fault_site)
     << " oracle=" << oracle_name(violation)
     << " ok=" << (pipeline_ok ? 1 : 0) << " tau=" << tau_original
     << " tau_opt=" << tau_optimized << " sim=" << sim_mem_cycles
     << " instr=" << instructions << " pf=" << prefetches;
  return os.str();
}

bool CaseVerdict::parse(const std::string& line, CaseVerdict& out) {
  std::istringstream is(line);
  std::string kw;
  if (!(is >> kw) || kw != "case") return false;
  if (!(is >> out.index)) return false;
  std::string field;
  auto take = [&field](const char* key, std::string& value) {
    const std::string prefix = std::string(key) + "=";
    if (field.compare(0, prefix.size(), prefix) != 0) return false;
    value = field.substr(prefix.size());
    return true;
  };
  try {
    std::string v;
    if (!(is >> field) || !take("seed", v)) return false;
    out.case_seed = std::stoull(v, nullptr, 16);
    if (!(is >> field) || !take("config", out.config_id)) return false;
    if (!(is >> field) || !take("fault", out.fault_site)) return false;
    if (out.fault_site == "-") out.fault_site.clear();
    if (!(is >> field) || !take("oracle", v)) return false;
    out.violation = oracle_from_name(v);
    if (!(is >> field) || !take("ok", v)) return false;
    out.pipeline_ok = v == "1";
    if (!(is >> field) || !take("tau", v)) return false;
    out.tau_original = std::stoull(v);
    if (!(is >> field) || !take("tau_opt", v)) return false;
    out.tau_optimized = std::stoull(v);
    if (!(is >> field) || !take("sim", v)) return false;
    out.sim_mem_cycles = std::stoull(v);
    if (!(is >> field) || !take("instr", v)) return false;
    out.instructions = std::stoull(v);
    if (!(is >> field) || !take("pf", v)) return false;
    out.prefetches = std::stoull(v);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

CampaignResult run_campaign(const CampaignOptions& options) {
  CampaignResult result;
  const std::uint32_t shards = std::max(1u, options.shard_count);

  // The fault registry is process-global: an armed one-shot site would fire
  // on whichever thread hits it first, mis-attributing the fault to the
  // wrong case. Fault campaigns therefore stay single-threaded.
  std::uint32_t threads = std::max(1u, options.threads);
  if (options.fault_every > 0 && threads > 1) {
    threads = 1;
    result.journal_note =
        "threads forced to 1 (fault injection is process-global)";
  }

  // Owned cases, increasing index: all of them, or this shard's i % N slice.
  std::vector<std::uint32_t> own;
  own.reserve(options.cases / shards + 1);
  for (std::uint32_t i = 0; i < options.cases; ++i)
    if (shards == 1 || i % shards == options.shard_index % shards)
      own.push_back(i);

  support::RecordLog journal({"io.journal_write", "io.journal_kill"});
  if (!options.journal_path.empty()) {
    const Status opened = journal.open(
        options.journal_path, journal_format(options),
        [&](std::string_view body) {
          // Rows must follow this campaign's owned-index sequence: the r-th
          // row is case shard_index + r * shard_count (identity when
          // unsharded). Anything else is out of order; distrust the rest.
          CaseVerdict v;
          if (!CaseVerdict::parse(std::string(body), v) ||
              v.index != options.shard_index +
                             static_cast<std::uint32_t>(
                                 result.verdicts.size()) * shards)
            return false;
          result.verdicts.push_back(std::move(v));
          return true;
        });
    const std::string note =
        !opened.ok() ? "disabled: " + opened.message()
        : !journal.reset_reason().empty()
            ? "reset (" + journal.reset_reason() + ")"
        : result.verdicts.empty()
            ? "started"
            : "resumed " + std::to_string(result.verdicts.size()) +
                  " case(s)" +
                  (journal.truncated() ? " (torn tail truncated)" : "");
    result.journal_note += result.journal_note.empty() ? note : "; " + note;
    // A journal from a longer run of the same campaign may hold cases past
    // this run's count; indices are increasing, so trim from the tail.
    while (!result.verdicts.empty() &&
           result.verdicts.back().index >= options.cases)
      result.verdicts.pop_back();
    result.resumed = result.verdicts.size();
  }

  std::mutex side_mutex;  ///< guards repro_paths and the shrunk counter

  auto run_case = [&](std::uint32_t i) {
    const std::uint64_t case_seed = split_seed(options.seed, i);
    const cache::NamedCacheConfig& named = case_config(options, i);

    CaseVerdict verdict;
    verdict.index = i;
    verdict.case_seed = case_seed;
    verdict.config_id = named.id;

    const bool arm_fault =
        options.fault_every > 0 && (i + 1) % options.fault_every == 0;
    if (arm_fault) {
      const auto& sites = cross_fault_sites();
      verdict.fault_site =
          sites[(i / options.fault_every) % sites.size()];
    }

    OracleOptions oracle_options;
    oracle_options.config = named.config;
    oracle_options.timing =
        energy::derive_timing(named.config, energy::TechNode::k45nm);

    // Knobs and program derive from independent streams of the case seed,
    // so neither sampling step can perturb the other. The designated large
    // case takes the scaled-program recipe instead of sampled knobs.
    Rng knob_rng(split_seed(case_seed, 0));
    const gen::GenKnobs knobs =
        options.large_scale > 0 && i + 1 == options.cases
            ? gen::scaled_knobs(options.large_scale)
            : gen::sample_knobs(knob_rng);
    const std::uint64_t gen_seed = split_seed(case_seed, 1);

    ir::Program program("pending");
    bool generated = false;
    if (!verdict.fault_site.empty()) fault::arm(verdict.fault_site);
    try {
      program = gen::generate_program(gen_seed, knobs);
      generated = true;
      const OracleReport report = check_program(program, oracle_options);
      verdict.violation = report.violation;
      verdict.pipeline_ok = report.pipeline_ok;
      verdict.note = report.violated() ? report.detail : report.pipeline_note;
      verdict.tau_original = report.tau_original;
      verdict.tau_optimized = report.tau_optimized;
      verdict.sim_mem_cycles = report.sim_mem_cycles;
      verdict.instructions = report.instructions;
      verdict.prefetches = report.prefetches;
    } catch (const std::exception& e) {
      if (generated) {
        // check_program contains pipeline exceptions itself; one escaping
        // here is unexpected — surface it as a runtime violation.
        verdict.violation = Oracle::kRuntime;
        verdict.note = e.what();
      } else {
        // Generator failure: explained when its fault site was armed,
        // otherwise a generator bug the campaign must surface.
        verdict.pipeline_ok = false;
        verdict.violation = verdict.fault_site == "gen.build"
                                ? Oracle::kNone
                                : Oracle::kRuntime;
        verdict.note = std::string("generator: ") + e.what();
      }
    }
    // Disarm only this case's site: a site armed by the caller (a kill
    // test arming io.journal_kill) must survive the case boundary.
    if (!verdict.fault_site.empty()) fault::disarm(verdict.fault_site);

    if (verdict.violated()) {
      // (unexplained/violation totals are recomputed over all verdicts at
      // the end; nothing to count here.)
      if (!options.corpus_dir.empty() && generated) {
        CorpusEntry entry;
        entry.seed = gen_seed;
        entry.knobs = knobs.to_string();
        entry.expect = verdict.violation;
        entry.detail = verdict.note;
        entry.fault_site = verdict.fault_site;
        entry.config_id = named.id;
        entry.program = program;

        if (options.shrink && verdict.fault_site.empty()) {
          // Same-oracle-kind predicate; verify-gating happens inside the
          // shrinker. One-shot fault violations are gone by now, so the
          // shrinker's pre-check fails for them and the repro stays
          // unshrunk (hence the fault_site guard above skips the attempt).
          const Oracle kind = verdict.violation;
          const ShrinkResult shrunk = shrink_program(
              program,
              [&](const ir::Program& candidate) {
                return check_program(candidate, oracle_options).violation ==
                       kind;
              });
          if (shrunk.reproduced) {
            entry.program = shrunk.program;
            entry.detail +=
                " (shrunk " + std::to_string(shrunk.accepted) + " steps)";
            std::lock_guard<std::mutex> lock(side_mutex);
            ++result.shrunk;
          } else {
            entry.detail += " (unreproducible; unshrunk)";
          }
        }
        std::ostringstream file;
        file << options.corpus_dir << "/repro_" << to_hex(case_seed) << "_"
             << oracle_name(verdict.violation) << ".ucp";
        entry.name = file.str();
        if (write_corpus_entry(file.str(), entry).ok()) {
          std::lock_guard<std::mutex> lock(side_mutex);
          result.repro_paths.push_back(file.str());
        }
      }
    }
    return verdict;
  };

  // Remaining owned cases run on the worker pool; each lands in its slot,
  // and a commit frontier emits trace lines, journal rows and progress in
  // index order — so every byte of output is identical at any thread
  // count, and the journal stays a resumable prefix.
  const std::size_t start = result.verdicts.size();
  std::vector<CaseVerdict> slots(own.size() - start);
  support::CommitFrontier frontier(
      slots.size(), [&](std::size_t begin, std::size_t end) {
        std::vector<std::string> rows;
        for (std::size_t k = begin; k < end; ++k) {
          const std::string line = slots[k].line();
          if (options.trace) std::cerr << "[fuzz] " << line << "\n";
          if (journal.active()) rows.push_back(line);
          const std::size_t emitted = start + k + 1;
          if (options.progress_every > 0 &&
              emitted % options.progress_every == 0)
            std::cerr << "[fuzz] " << emitted << "/" << own.size()
                      << " cases\n";
        }
        // One append (one fsync) per commit; a failure deactivates the
        // journal and the campaign carries on without checkpoints.
        if (rows.empty()) return;
        const Status appended = journal.append(rows);
        if (!appended.ok())
          result.journal_note += "; journaling disabled: " + appended.message();
      });
  support::parallel_for_index(slots.size(), threads,
                              [&](std::size_t k, std::uint32_t) {
                                slots[k] = run_case(own[start + k]);
                                frontier.done(k);
                              });
  for (CaseVerdict& v : slots) result.verdicts.push_back(std::move(v));
  journal.close();

  // Totals + fingerprint over ALL verdicts (resumed ones included), so an
  // interrupted+resumed campaign reports exactly like an uninterrupted one.
  std::uint64_t h = fnv1a("ucp-fuzz-verdicts");
  result.violations = result.unexplained = result.skipped = result.faulted =
      0;
  for (const CaseVerdict& v : result.verdicts) {
    h = fnv1a(v.line(), h);
    if (v.violated()) {
      ++result.violations;
      if (v.fault_site.empty()) ++result.unexplained;
    }
    if (!v.pipeline_ok) ++result.skipped;
    if (!v.fault_site.empty()) ++result.faulted;
  }
  result.fingerprint = to_hex(h);

  // Publish-at-end authoritative totals (mirrors publish_sweep_metrics).
  if (obs::enabled()) {
    auto& r = obs::registry();
    r.counter("fuzz.campaign.cases").add(result.verdicts.size());
    r.counter("fuzz.campaign.violations").add(result.violations);
    r.counter("fuzz.campaign.unexplained").add(result.unexplained);
    r.counter("fuzz.campaign.skipped").add(result.skipped);
    r.counter("fuzz.campaign.faulted").add(result.faulted);
    r.counter("fuzz.campaign.shrunk").add(result.shrunk);
    r.counter("fuzz.campaign.resumed").add(result.resumed);
    auto& instr_hist = r.histogram("fuzz.case.instructions");
    auto& tau_hist = r.histogram("fuzz.case.tau_original");
    for (const CaseVerdict& v : result.verdicts) {
      instr_hist.record(v.instructions);
      tau_hist.record(v.tau_original);
    }
  }
  return result;
}

}  // namespace ucp::fuzz
