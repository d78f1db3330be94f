#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/oracles.hpp"

namespace ucp::fuzz {

/// One fuzz campaign: `cases` programs, each derived from
/// `split_seed(seed, index)` so any single case replays in isolation and a
/// resumed campaign continues bit-identically.
struct CampaignOptions {
  std::uint64_t seed = 1;       ///< root seed
  std::uint32_t cases = 200;    ///< generated programs to run
  bool shrink = true;           ///< minimize violations before writing repros
  /// Cache configurations rotate through the paper grid with this stride
  /// (index -> k{1 + (index*stride) % 36}); 0 pins every case to k7.
  std::uint32_t config_rotation = 5;
  /// Arm one compute-path fault site (one-shot) on every n-th case, cycling
  /// through the containment list — crosses the soundness oracles with the
  /// PR-1 fault registry. 0 = off. Faulted cases must come back as
  /// explained skips or identity degradations, never as violations.
  std::uint32_t fault_every = 0;
  std::string corpus_dir;       ///< where repros are written; "" = nowhere
  std::string journal_path;     ///< checkpoint/resume journal; "" = none
  bool trace = false;           ///< per-case verdict lines on stderr
  std::uint32_t progress_every = 0;  ///< progress line period; 0 = silent
  /// Worker threads (0 = 1). Cases are seed-independent, so any thread
  /// count produces the same verdicts; the journal, trace lines and
  /// fingerprint stay in index order via support::CommitFrontier. Forced to
  /// 1 when fault_every > 0: the fault registry is process-global, so an
  /// armed site could otherwise fire on the wrong thread's case.
  std::uint32_t threads = 1;
  /// Run only cases with index % shard_count == shard_index (0/1 = all).
  /// Shard journals bind their slice in the header; verdicts and the
  /// fingerprint cover only the owned cases.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Scale factor for the campaign's LAST case: its sampled knobs are
  /// replaced by gen::scaled_knobs(scale), a generated program ~scale x the
  /// Mälardalen median, so every smoke run drives the SCC fixpoint, state
  /// interner, WCET collapse and its certificate through a model two orders of
  /// magnitude above the shrunk-repro sizes the rest of the corpus
  /// exercises. 0 = off
  /// (every case uses its sampled knobs).
  std::uint32_t large_scale = 0;
};

/// Deterministic per-case verdict. `line()` is the canonical serialized
/// form — it contains no wall-clock or host-dependent values, so the
/// campaign fingerprint (FNV-1a over all lines) is machine-independent and
/// unchanged by --trace.
struct CaseVerdict {
  std::uint32_t index = 0;
  std::uint64_t case_seed = 0;
  std::string config_id;
  std::string fault_site;        ///< armed during this case; "" = none
  Oracle violation = Oracle::kNone;
  bool pipeline_ok = true;
  std::string note;              ///< detail (violations) / skip reason
  std::uint64_t tau_original = 0;
  std::uint64_t tau_optimized = 0;
  std::uint64_t sim_mem_cycles = 0;
  std::uint64_t instructions = 0;
  std::size_t prefetches = 0;

  bool violated() const { return violation != Oracle::kNone; }

  std::string line() const;
  /// Inverse of line(); false on malformed input (journal resume).
  static bool parse(const std::string& line, CaseVerdict& out);
};

struct CampaignResult {
  std::vector<CaseVerdict> verdicts;   ///< one per case, in index order
  std::size_t violations = 0;          ///< verdicts with a violated oracle
  std::size_t unexplained = 0;         ///< violations not due to armed faults
  std::size_t skipped = 0;             ///< pipeline_ok == false (explained)
  std::size_t faulted = 0;             ///< cases run with an armed site
  std::size_t shrunk = 0;              ///< repros minimized by the shrinker
  std::size_t resumed = 0;             ///< verdicts restored from the journal
  std::string journal_note;            ///< started / resumed N / reset: why
  std::string fingerprint;             ///< FNV-1a over verdict lines
  std::vector<std::string> repro_paths;  ///< corpus files written this run
};

/// Runs the campaign. Violations are (optionally) shrunk and written as
/// corpus repros; the campaign itself never throws on a violation — the
/// caller inspects `unexplained`. Publishes `fuzz.campaign.*` metrics via
/// ucp::obs at the end (authoritative totals, journal-resumed cases
/// included).
CampaignResult run_campaign(const CampaignOptions& options);

}  // namespace ucp::fuzz
