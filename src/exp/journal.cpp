#include "exp/journal.hpp"

#include <bit>
#include <charconv>
#include <sstream>
#include <string_view>

#include "energy/model.hpp"

namespace ucp::exp {

namespace {

using support::fnv1a;
using support::to_hex;

const char kJournalName[] = "ucp-sweep-journal";
// v2: rows are journaled in deterministic heaviest-first schedule order (v1
// journaled them in nondeterministic completion order), and sharded sweeps
// declare their slice in the header. v3: rows drop the full-reanalysis
// count and the selection fingerprint drops the removed optimizer modes.
// v4: rows drop the warm-start and skipped-phase-1 solver counters. v5:
// rows drop the remaining solver counters (LP solves, pivots, B&B nodes);
// the WCET engine runs no solver. Journals of any other version reset on
// open.
constexpr std::uint32_t kJournalVersion = 5;
constexpr std::size_t kRowCells = 33;  ///< cells of a row body

bool parse_hex64(const std::string& cell, std::uint64_t& out) {
  if (cell.size() != 16 ||
      cell.find_first_not_of("0123456789abcdef") != std::string::npos)
    return false;
  std::from_chars(cell.data(), cell.data() + cell.size(), out, 16);
  return true;
}

/// Energies are journaled as the exact bit pattern of the double, not a
/// decimal rendering: resume must reproduce the uninterrupted run bit for
/// bit, and round-tripping through decimal cannot guarantee that.
std::string double_bits(double v) {
  return to_hex(std::bit_cast<std::uint64_t>(v));
}

support::RecordLog::Format journal_format(const std::string& grid_fp,
                                          const std::string& selection_fp,
                                          std::uint32_t shard_index,
                                          std::uint32_t shard_count) {
  support::RecordLog::Format format{
      kJournalName, kJournalVersion,
      " grid=" + grid_fp + " sel=" + selection_fp,
      "grid/selection/shard fingerprint changed since last run"};
  // Unsharded journals carry no shard field, so a merged N-shard journal is
  // byte-identical to a single-process one starting from the header.
  if (shard_count > 1)
    format.fields += " shard=" + std::to_string(shard_index) + "/" +
                     std::to_string(shard_count);
  return format;
}

/// One row record without its checksum (journal_row() seals it).
std::string row_body(const UseCaseResult& r, std::size_t index) {
  const std::uint32_t audit_flags =
      (r.audit.performed ? 1u : 0u) | (r.audit.violated ? 2u : 0u);
  std::ostringstream row;
  row << "row," << index << ',' << support::escape_cell(r.program) << ','
      << r.config_id << ',' << energy::tech_name(r.tech) << ','
      << static_cast<int>(r.outcome) << ',' << static_cast<int>(r.fail_code)
      << ',' << support::escape_cell(r.fail_stage) << ',' << r.attempts << ','
      << r.degradation_level << ',' << audit_flags << ','
      << r.audit.tau_audit << ',' << r.original.tau_wcet << ','
      << r.original.run.mem_cycles << ',' << r.original.run.instructions
      << ',' << r.original.run.total_cycles << ','
      << r.original.run.cache.fetches << ',' << r.original.run.cache.misses
      << ',' << double_bits(r.original.energy.total_nj()) << ','
      << r.optimized.tau_wcet << ',' << r.optimized.run.mem_cycles << ','
      << r.optimized.run.instructions << ',' << r.optimized.run.total_cycles
      << ',' << r.optimized.run.cache.fetches << ','
      << r.optimized.run.cache.misses << ','
      << double_bits(r.optimized.energy.total_nj()) << ','
      << r.report.insertions.size() << ',' << r.report.candidates_found
      << ',' << r.report.candidates_evaluated << ',' << r.report.passes
      << ',' << r.report.incremental_reanalyses << ','
      << r.report.nodes_reanalyzed << ','
      << support::escape_cell(r.fail_detail);
  return row.str();
}

/// Inverse of row_body().
bool parse_row_body(std::string_view body, std::size_t& index,
                    UseCaseResult& r) {
  const std::vector<std::string> cells = support::split_cells(body);
  if (cells.size() != kRowCells || cells[0] != "row") return false;

  std::uint64_t u[25];
  const int cols[] = {1,  5,  6,  8,  9,  10, 11, 12, 13, 14, 15, 16, 17,
                      19, 20, 21, 22, 23, 24, 26, 27, 28, 29, 30, 31};
  for (std::size_t i = 0; i < std::size(cols); ++i)
    if (!support::parse_u64(cells[static_cast<std::size_t>(cols[i])], u[i]))
      return false;
  std::uint64_t e_orig = 0, e_opt = 0;
  if (!parse_hex64(cells[18], e_orig) || !parse_hex64(cells[25], e_opt))
    return false;
  if (u[1] > static_cast<std::uint64_t>(CaseOutcome::kFailed)) return false;
  if (u[2] > static_cast<std::uint64_t>(ErrorCode::kAuditFailed))
    return false;

  r = UseCaseResult{};
  index = static_cast<std::size_t>(u[0]);
  r.program = support::unescape_cell(cells[2]);
  r.config_id = cells[3];
  if (cells[4] == "45nm") {
    r.tech = energy::TechNode::k45nm;
  } else if (cells[4] == "32nm") {
    r.tech = energy::TechNode::k32nm;
  } else {
    return false;
  }
  r.outcome = static_cast<CaseOutcome>(u[1]);
  r.fail_code = static_cast<ErrorCode>(u[2]);
  r.fail_stage = support::unescape_cell(cells[7]);
  r.attempts = static_cast<std::uint32_t>(u[3]);
  r.degradation_level = static_cast<std::uint32_t>(u[4]);
  r.audit.performed = (u[5] & 1u) != 0;
  r.audit.violated = (u[5] & 2u) != 0;
  // Bit 4 marked an audit whose ILP oracle could not answer; the
  // certificate check always answers, and old rows read as audited.
  r.audit.tau_audit = u[6];
  r.original.tau_wcet = u[7];
  r.original.run.mem_cycles = u[8];
  r.original.run.instructions = u[9];
  r.original.run.total_cycles = u[10];
  r.original.run.cache.fetches = u[11];
  r.original.run.cache.misses = u[12];
  // Only the total matters downstream; park it in one component (exact:
  // the journaled value IS the bit pattern of total_nj()).
  r.original.energy.cache_dynamic_nj = std::bit_cast<double>(e_orig);
  r.optimized.tau_wcet = u[13];
  r.optimized.run.mem_cycles = u[14];
  r.optimized.run.instructions = u[15];
  r.optimized.run.total_cycles = u[16];
  r.optimized.run.cache.fetches = u[17];
  r.optimized.run.cache.misses = u[18];
  r.optimized.energy.cache_dynamic_nj = std::bit_cast<double>(e_opt);
  r.report.insertions.resize(static_cast<std::size_t>(u[19]));
  r.report.candidates_found = static_cast<std::size_t>(u[20]);
  // Optimizer work accounting rides in the row so resumed and merged
  // sweeps publish the same exp.sweep.* metrics as an uninterrupted run.
  r.report.candidates_evaluated = static_cast<std::size_t>(u[21]);
  r.report.passes = static_cast<std::size_t>(u[22]);
  r.report.incremental_reanalyses = static_cast<std::size_t>(u[23]);
  r.report.nodes_reanalyzed = static_cast<std::size_t>(u[24]);
  r.fail_detail = support::unescape_cell(cells[32]);
  // Reconstruct the report invariants degrade_to_original / the optimizer
  // maintain; none of these enter the fingerprint row.
  r.report.code = r.quarantined() ? r.fail_code : ErrorCode::kOk;
  r.report.detail = r.fail_detail;
  r.report.tau_original = r.original.tau_wcet;
  r.report.tau_optimized = r.optimized.tau_wcet;
  r.report.tau_fixed_final = r.optimized.tau_wcet;
  return true;
}

}  // namespace

std::string SweepJournal::selection_fingerprint(
    const SweepOptions& options, const std::vector<std::string>& names) {
  std::uint64_t h = fnv1a("ucp-sweep-selection");
  for (const std::string& n : names) h = fnv1a(n + ";", h);
  h = fnv1a("stride=" + std::to_string(options.config_stride), h);
  for (const energy::TechNode t : options.techs)
    h = fnv1a(energy::tech_name(t), h);
  h = fnv1a("attempts=" + std::to_string(options.max_attempts), h);
  h = fnv1a("deadline=" + std::to_string(options.case_deadline_ms), h);
  h = fnv1a("audit=" + std::to_string(options.audit_soundness), h);
  // Optimizer knobs that influence which rows a sweep produces. "4096" and
  // the trailing "0" are the constant values of the retired max_prefetches
  // and deadline_ms fields; they stay in the hash so existing journals
  // still resume.
  const core::OptimizerOptions& o = options.optimizer;
  std::ostringstream opt;
  opt << "opt=" << o.max_passes << '/' << o.require_effectiveness << '/'
      << static_cast<int>(o.accept_rule) << "/4096/" << o.max_evaluations
      << "/0";
  h = fnv1a(opt.str(), h);
  return to_hex(h);
}

std::string SweepJournal::journal_row(const UseCaseResult& result,
                                      std::size_t index) {
  return support::seal_record(row_body(result, index));
}

bool SweepJournal::parse_journal_row(const std::string& line,
                                     std::size_t& index,
                                     UseCaseResult& result) {
  const std::optional<std::string_view> body = support::unseal_record(line);
  return body && parse_row_body(*body, index, result);
}

Status SweepJournal::open(
    const std::string& path, const std::string& grid_fp,
    const std::string& selection_fp, std::uint32_t shard_index,
    std::uint32_t shard_count, std::vector<UseCaseResult>& rows,
    std::vector<bool>& have_row,
    const std::function<bool(std::size_t, const UseCaseResult&)>&
        matches_grid) {
  resumed_ = 0;
  const Status opened = log_.open(
      path, journal_format(grid_fp, selection_fp, shard_index, shard_count),
      [&](std::string_view body) {
        std::size_t index = 0;
        UseCaseResult r;
        if (!parse_row_body(body, index, r) || index >= rows.size() ||
            !matches_grid(index, r))
          return false;
        // Duplicate index: a task re-appended in full after a torn tail left
        // part of it. Identical content is harmless; divergent content is
        // corruption and truncates like a torn tail.
        if (have_row[index]) return row_body(rows[index], index) == body;
        rows[index] = std::move(r);
        have_row[index] = true;
        ++resumed_;
        return true;
      });
  if (!log_.reset_reason().empty())
    note_ = "journal reset (" + log_.reset_reason() + ")";
  else if (log_.created())
    note_ = "journal started at '" + path + "'";
  else if (resumed_ > 0)
    note_ = "resumed " + std::to_string(resumed_) + " journaled rows from '" +
            path + "'" + (log_.truncated() ? " (torn tail truncated)" : "");
  else
    note_ = "journal at '" + path + "' held no reusable rows";
  return opened;
}

Status SweepJournal::append_batch(
    const std::vector<UseCaseResult>& results,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
  std::vector<std::string> bodies;
  for (const auto& [first, count] : ranges)
    for (std::size_t k = 0; k < count; ++k)
      bodies.push_back(row_body(results[first + k], first + k));
  return log_.append(bodies);
}

namespace {

/// Parses "# ucp-sweep-journal v5 grid=<fp> sel=<fp>[ shard=<i>/<N>]".
/// Returns false on anything else (including other versions: row-order
/// semantics changed in v2, so older journals cannot be merged).
bool parse_merge_header(const std::string& line, std::string& grid_fp,
                        std::string& sel_fp, std::uint64_t& shard_index,
                        std::uint64_t& shard_count) {
  const std::string magic =
      support::RecordLog::Format{kJournalName, kJournalVersion}.header() +
      " grid=";
  if (line.rfind(magic, 0) != 0) return false;
  std::string rest = line.substr(magic.size());
  const std::size_t sel_at = rest.find(" sel=");
  if (sel_at == std::string::npos) return false;
  grid_fp = rest.substr(0, sel_at);
  rest = rest.substr(sel_at + 5);
  shard_index = 0;
  shard_count = 1;
  const std::size_t shard_at = rest.find(" shard=");
  if (shard_at == std::string::npos) {
    sel_fp = rest;
    return true;
  }
  sel_fp = rest.substr(0, shard_at);
  const std::string shard = rest.substr(shard_at + 7);
  const std::size_t slash = shard.find('/');
  if (slash == std::string::npos) return false;
  return support::parse_u64(shard.substr(0, slash), shard_index) &&
         support::parse_u64(shard.substr(slash + 1), shard_count) &&
         shard_count > 1 && shard_index < shard_count;
}

}  // namespace

const char* merge_reason_name(MergeDiagnostic::Reason reason) {
  switch (reason) {
    case MergeDiagnostic::Reason::kNone: return "none";
    case MergeDiagnostic::Reason::kMissingFile: return "missing-file";
    case MergeDiagnostic::Reason::kBadHeader: return "bad-header";
    case MergeDiagnostic::Reason::kGridMismatch: return "grid-mismatch";
    case MergeDiagnostic::Reason::kSelectionMismatch:
      return "selection-mismatch";
    case MergeDiagnostic::Reason::kShardCountMismatch:
      return "shard-count-mismatch";
    case MergeDiagnostic::Reason::kDuplicateShard: return "duplicate-shard";
    case MergeDiagnostic::Reason::kChecksum: return "checksum";
    case MergeDiagnostic::Reason::kForeignRow: return "foreign-row";
    case MergeDiagnostic::Reason::kWrongShard: return "wrong-shard";
    case MergeDiagnostic::Reason::kDivergent: return "divergent";
    case MergeDiagnostic::Reason::kMissingShard: return "missing-shard";
    case MergeDiagnostic::Reason::kGap: return "gap";
  }
  return "unknown";
}

Expected<JournalMerge> merge_sweep_journals(
    const std::vector<std::string>& inputs, const SweepOptions& options,
    const std::string& output_path, MergeDiagnostic* diagnostic) {
  if (diagnostic) *diagnostic = MergeDiagnostic{};
  if (inputs.empty())
    return Status(ErrorCode::kInternal, "no journals to merge");

  // The plan is the deterministic contract every shard derived its slice
  // from: it fixes the grid layout (row index -> program/config/tech), the
  // schedule order (row order of the merged journal) and shard ownership.
  SweepPlan plan = build_sweep_plan(options);
  const auto& configs = cache::paper_cache_configs();
  const std::string grid_fp = sweep_grid_fingerprint();
  const std::string sel_fp =
      SweepJournal::selection_fingerprint(options, plan.names);
  std::vector<std::size_t> schedule_pos(plan.tasks.size(), 0);
  for (std::size_t pos = 0; pos < plan.schedule.size(); ++pos)
    schedule_pos[plan.schedule[pos]] = pos;

  JournalMerge merge;
  merge.results.resize(plan.result_rows);
  merge.rows = plan.result_rows;
  std::vector<std::string> row_text(plan.result_rows);
  std::vector<bool> have(plan.result_rows, false);
  std::vector<bool> shard_seen;

  // Every rejection funnels through `fail`: the Status keeps the
  // human-readable sentence, the optional MergeDiagnostic records the same
  // rejection as (reason, file, row) so callers need not parse prose.
  auto fail = [&](MergeDiagnostic::Reason reason, const std::string& file,
                  const std::string& why, ErrorCode code =
                      ErrorCode::kCorruptCache) {
    const std::string message =
        file.empty() ? why : "journal '" + file + "': " + why;
    if (diagnostic) {
      diagnostic->reason = reason;
      diagnostic->file = file;
      diagnostic->detail = message;
    }
    return Status(code, message);
  };

  for (const std::string& path : inputs) {
    support::RecordReader reader(path);
    if (!reader.is_open())
      return fail(MergeDiagnostic::Reason::kMissingFile, path,
                  "cannot open it for merge", ErrorCode::kNotFound);
    auto reject = [&](MergeDiagnostic::Reason reason, const std::string& why) {
      return fail(reason, path, why);
    };
    auto reject_row = [&](MergeDiagnostic::Reason reason, std::size_t index,
                          const std::string& why) {
      const Status status = fail(reason, path, why);
      if (diagnostic) {
        diagnostic->row_index = index;
        diagnostic->has_row = true;
      }
      return status;
    };
    using Reason = MergeDiagnostic::Reason;
    std::string line;
    if (!reader.header(line))
      return reject(Reason::kBadHeader, "empty file or torn header");
    std::string got_grid, got_sel;
    std::uint64_t shard_index = 0, shard_count = 1;
    if (!parse_merge_header(line, got_grid, got_sel, shard_index,
                            shard_count))
      return reject(Reason::kBadHeader,
                    "not a v" + std::to_string(kJournalVersion) +
                        " sweep journal header: '" + line + "'");
    if (got_grid != grid_fp)
      return reject(Reason::kGridMismatch,
                    "grid fingerprint mismatch (journal " + got_grid +
                        ", sweep " + grid_fp + ")");
    if (got_sel != sel_fp)
      return reject(Reason::kSelectionMismatch,
                    "selection fingerprint mismatch (journal " + got_sel +
                        ", sweep " + sel_fp + ")");
    if (shard_seen.empty()) {
      merge.shard_count = static_cast<std::uint32_t>(shard_count);
      shard_seen.assign(static_cast<std::size_t>(shard_count), false);
    } else if (shard_count != shard_seen.size()) {
      return reject(Reason::kShardCountMismatch,
                    "shard count mismatch (declares " +
                        std::to_string(shard_count) +
                        " shards, earlier input " +
                        std::to_string(shard_seen.size()) + ")");
    }
    if (shard_seen[static_cast<std::size_t>(shard_index)])
      return reject(Reason::kDuplicateShard,
                    "duplicate shard " + std::to_string(shard_index) + "/" +
                        std::to_string(shard_count));
    shard_seen[static_cast<std::size_t>(shard_index)] = true;

    // Strict read: a torn tail is legal in a crashed journal, but a *merge*
    // needs every row, so it fails loudly instead of dropping the tail.
    std::size_t rows_read = 0;
    for (auto next = reader.next(); next != support::RecordReader::Next::kEnd;
         next = reader.next()) {
      std::size_t index = 0;
      UseCaseResult r;
      if (next == support::RecordReader::Next::kInvalid ||
          !parse_row_body(reader.body(), index, r))
        // Report the 0-based position of the bad row within this file's
        // data rows — its grid index is unknowable when the row is torn.
        return reject_row(
            Reason::kChecksum, rows_read,
            "invalid or torn row (merge requires complete shard "
            "journals; re-run the shard to completion)");
      ++rows_read;
      if (index >= plan.result_rows)
        return reject_row(Reason::kForeignRow, index,
                          "row index " + std::to_string(index) +
                              " outside the sweep grid");
      const std::size_t t = index / options.techs.size();
      const std::size_t k = index % options.techs.size();
      if (r.program != plan.names[plan.tasks[t].program] ||
          r.config_id != configs[plan.tasks[t].config].id ||
          r.tech != options.techs[k])
        return reject_row(Reason::kForeignRow, index,
                          "row " + std::to_string(index) +
                              " does not match the sweep grid");
      if (SweepPlan::shard_of(schedule_pos[t], merge.shard_count) !=
          shard_index)
        return reject_row(Reason::kWrongShard, index,
                          "row " + std::to_string(index) +
                              " is not owned by shard " +
                              std::to_string(shard_index) + "/" +
                              std::to_string(shard_count));
      if (have[index]) {
        // Within one shard a task may be re-appended after a torn tail;
        // identical content is harmless, divergence is corruption.
        if (row_text[index] != reader.body())
          return reject_row(Reason::kDivergent, index,
                            "row " + std::to_string(index) +
                                " appears twice with divergent content");
        continue;
      }
      r.config = configs[plan.tasks[t].config].config;
      merge.results[index] = std::move(r);
      row_text[index] = reader.body();
      have[index] = true;
    }
  }

  for (std::size_t s = 0; s < shard_seen.size(); ++s)
    if (!shard_seen[s])
      return fail(MergeDiagnostic::Reason::kMissingShard, "",
                  "shard " + std::to_string(s) + "/" +
                      std::to_string(shard_seen.size()) +
                      " is missing from the merge inputs");
  std::size_t missing = 0;
  std::size_t first_missing = plan.result_rows;
  for (std::size_t i = 0; i < have.size(); ++i) {
    if (have[i]) continue;
    ++missing;
    first_missing = std::min(first_missing, i);
  }
  if (missing > 0) {
    const Status status =
        fail(MergeDiagnostic::Reason::kGap, "",
             std::to_string(missing) +
                 " grid rows missing from the merge inputs (first: row " +
                 std::to_string(first_missing) +
                 ") — every shard must have run to completion");
    if (diagnostic) {
      diagnostic->row_index = first_missing;
      diagnostic->has_row = true;
    }
    return status;
  }

  merge.fingerprint = sweep_results_fingerprint(merge.results);

  if (!output_path.empty()) {
    // Reassemble the byte-identical unsharded journal: same header (no
    // shard field), same rows in the same deterministic schedule order,
    // each the journaled row body, never re-serialized.
    std::string out = journal_format(grid_fp, sel_fp, 0, 1).header() + "\n";
    for (const std::size_t t : plan.schedule) {
      const std::size_t first = plan.tasks[t].first;
      for (std::size_t k = 0; k < options.techs.size(); ++k)
        out += support::seal_record(row_text[first + k]) + "\n";
    }
    const Status published = support::RecordLog::publish(output_path, out);
    if (!published.ok()) return published;
  }
  return merge;
}

}  // namespace ucp::exp
