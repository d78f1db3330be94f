#pragma once

// Crash-safe sweep checkpoint journal, on support::RecordLog.
//
// An append-only row log that survives kill -9 at any byte. Every finished
// task's rows are appended, checksummed and fsync'd before the task counts
// as done, so a re-opened journal resumes the sweep from the last durable
// row and the combined result set is bit-identical to an uninterrupted
// run. A finished unsharded journal holds the whole result set, so the
// figure benches share one journal instead of recomputing the grid.
//
// RecordLog owns the durability discipline (fsync'd header, checksummed
// rows, one fsync per append batch, torn-tail truncation, reset on a header
// mismatch). This class keeps the row codec and the sweep's policy: a row
// is reused only if it belongs to this grid, selection and shard, and a
// duplicate row must repeat the first one byte for byte. The header names
// the format version and the grid + selection fingerprints, plus the shard
// slice for sharded sweeps.
//
// Row order (since format v2): rows appear in the sweep's deterministic
// heaviest-first schedule order, whatever the thread count — finished rows
// wait in the result array until a support::CommitFrontier over the
// schedule reaches them, and its one committer appends them (DESIGN.md
// §13.2). The journal of an N-thread run is therefore byte-identical to a
// 1-thread run's, and merge_sweep_journals can reassemble shard journals
// into the byte-identical unsharded file.

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exp/harness.hpp"
#include "support/record_log.hpp"
#include "support/status.hpp"

namespace ucp::exp {

class SweepJournal {
 public:
  /// Opens (or creates) the journal at `path` for the sweep identified by
  /// `grid_fp` + `selection_fp`, owned by shard `shard_index` of
  /// `shard_count` (0 of 1 = unsharded; the header only names the shard
  /// when sharded). Valid rows whose index passes `matches_grid` are
  /// restored into `rows` / `have_row` (both pre-sized to the result
  /// count); everything from the first invalid row onward is truncated. On
  /// success the journal is active() and ready for appends. `note()`
  /// afterwards describes what happened (started / resumed N rows /
  /// reset: why).
  Status open(const std::string& path, const std::string& grid_fp,
              const std::string& selection_fp, std::uint32_t shard_index,
              std::uint32_t shard_count, std::vector<UseCaseResult>& rows,
              std::vector<bool>& have_row,
              const std::function<bool(std::size_t, const UseCaseResult&)>&
                  matches_grid);

  /// Appends several row ranges (first grid index, row count) as one batch
  /// with a single fflush + fsync, so a flush-frontier advance over many
  /// buffered tasks costs one durability round-trip, not one per task.
  /// Ranges become durable together; a crash mid-batch loses (at most) a
  /// checksummed-away torn tail. A write failure disables the journal (the
  /// sweep continues without checkpoints) and is returned as a Status. Not
  /// thread-safe; the sweep's commit frontier serializes appends.
  Status append_batch(
      const std::vector<UseCaseResult>& results,
      const std::vector<std::pair<std::size_t, std::size_t>>& ranges);

  /// Appends `text` as a `#` annotation, skipped on resume; the sweep merges
  /// its end-of-run metrics snapshot into the journal this way. A failure
  /// (fault point obs.sink_write) leaves the journal active.
  Status annotate(const std::string& text) { return log_.annotate(text); }

  bool active() const { return log_.active(); }
  const std::string& note() const { return note_; }
  std::size_t resumed_rows() const { return resumed_; }

  void close() { log_.close(); }

  /// Fingerprint of everything that must match for journal rows to be
  /// reusable: the resolved program list, configuration subset, tech nodes,
  /// sharing mode, supervision knobs and optimizer options.
  static std::string selection_fingerprint(
      const SweepOptions& options, const std::vector<std::string>& names);

  /// One serialized journal row (with trailing checksum), and its inverse.
  static std::string journal_row(const UseCaseResult& result,
                                 std::size_t index);
  static bool parse_journal_row(const std::string& line, std::size_t& index,
                                UseCaseResult& result);

 private:
  support::RecordLog log_{{"io.journal_write", "io.journal_kill"}};
  std::string note_;
  std::size_t resumed_ = 0;
};

/// Result of merging shard journals back into one sweep.
struct JournalMerge {
  std::vector<UseCaseResult> results;  ///< full grid, grid order
  std::uint32_t shard_count = 0;       ///< shard count declared by the inputs
  std::size_t rows = 0;                ///< result rows reassembled
  std::string fingerprint;             ///< re-derived global sweep fingerprint
};

/// Structured report of why a journal merge was rejected. The Status message
/// stays the human-readable sentence; this records the same rejection as
/// machine-checkable fields so callers (and the `--merge-journals` CLI) can
/// point at the offending file and row instead of re-parsing prose.
struct MergeDiagnostic {
  enum class Reason {
    kNone = 0,        ///< merge succeeded (or failed before any input)
    kMissingFile,     ///< input journal could not be opened
    kBadHeader,       ///< empty file or unparseable/old-version header
    kGridMismatch,    ///< header grid fingerprint != this build's grid
    kSelectionMismatch,  ///< header selection fingerprint != sweep options
    kShardCountMismatch,  ///< inputs disagree on the shard count N
    kDuplicateShard,  ///< two inputs claim the same shard slot
    kChecksum,        ///< invalid or torn row (checksum/format failure)
    kForeignRow,      ///< row index outside the grid or content not matching it
    kWrongShard,      ///< row not owned by the shard that journaled it
    kDivergent,       ///< same row index appears twice with different bytes
    kMissingShard,    ///< a shard slot has no input journal
    kGap,             ///< grid rows missing after all inputs were consumed
  };
  Reason reason = Reason::kNone;
  std::string file;        ///< offending input path ("" for kMissingShard/kGap)
  std::size_t row_index = 0;  ///< grid row index for row-level reasons, else 0
  bool has_row = false;    ///< whether row_index is meaningful
  std::string detail;      ///< the human-readable sentence from the Status
};

/// Stable lowercase name for a MergeDiagnostic::Reason ("checksum", "gap", ...).
const char* merge_reason_name(MergeDiagnostic::Reason reason);

/// Merges the journals of a complete set of `--shard i/N` runs of the sweep
/// described by `options` (shard fields ignored). Validates that every
/// input carries the sweep's grid + selection fingerprints and a distinct
/// shard slot of one common N, that every row belongs to the shard that
/// journaled it, and that the union is exactly the full grid — overlapping
/// rows must be byte-identical and gaps are an error, never padded. On
/// success, when `output_path` is non-empty, writes a merged journal there
/// (RecordLog::publish) that is byte-identical to the journal
/// an unsharded run would have produced — same header, same rows, same
/// deterministic schedule order. On rejection, when `diagnostic` is
/// non-null, it is filled with the structured reason alongside the Status.
Expected<JournalMerge> merge_sweep_journals(
    const std::vector<std::string>& inputs, const SweepOptions& options,
    const std::string& output_path,
    MergeDiagnostic* diagnostic = nullptr);

}  // namespace ucp::exp
