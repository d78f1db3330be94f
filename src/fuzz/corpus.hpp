#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/oracles.hpp"
#include "ir/program.hpp"
#include "support/status.hpp"

namespace ucp::fuzz {

/// One self-contained repro file (`tests/corpus/*.ucp`): provenance
/// headers plus the canonical program text. A violation entry records the
/// oracle it must trip; a pass exemplar records "none" and pins that the
/// battery stays green on a known-good program. `fault_site`, when
/// non-empty, is armed one-shot before replay — that is how injected
/// violations (which are unreproducible by nature) stay replayable.
struct CorpusEntry {
  std::string name;              ///< file stem, e.g. "pass_3f91a2"
  std::uint64_t seed = 0;        ///< generator seed (provenance)
  std::string knobs;             ///< knob string (provenance, free-form)
  Oracle expect = Oracle::kNone; ///< violation the replay must reproduce
  std::string detail;            ///< one-line triage note
  std::string fault_site;        ///< armed one-shot before replay; "" = none
  std::string config_id = "k7";  ///< paper cache configuration for replay
  ir::Program program{""};
};

/// Serializes an entry (header comments + `ir::to_text`); byte-stable.
std::string corpus_to_text(const CorpusEntry& entry);
/// Parses serialized form; throws InvalidArgument on malformed input.
CorpusEntry corpus_from_text(const std::string& text, std::string name = "");

/// Writes the entry atomically and durably (RecordLog::publish).
Status write_corpus_entry(const std::string& path, const CorpusEntry& entry);
Expected<CorpusEntry> read_corpus_entry(const std::string& path);

/// All `*.ucp` files under `dir`, sorted by name (deterministic replay
/// order). Missing directory = empty list.
std::vector<std::string> list_corpus_files(const std::string& dir);

/// Replays one entry: verifies the program, arms `fault_site` if present,
/// runs the oracle battery on `config_id`, and checks the verdict equals
/// `expect`. Ok = reproduced as recorded.
Status replay_corpus_entry(const CorpusEntry& entry);

}  // namespace ucp::fuzz
