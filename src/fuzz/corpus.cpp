#include "fuzz/corpus.hpp"

#include <algorithm>
#include <dirent.h>
#include <fstream>
#include <sstream>

#include "energy/model.hpp"
#include "ir/text_codec.hpp"
#include "ir/verify.hpp"
#include "support/fault_injection.hpp"
#include "support/record_log.hpp"

namespace ucp::fuzz {

namespace {
constexpr const char* kMagic = "# ucp-corpus v1";
}

std::string corpus_to_text(const CorpusEntry& entry) {
  std::ostringstream os;
  os << kMagic << "\n";
  os << "# seed " << std::hex << entry.seed << std::dec << "\n";
  if (!entry.knobs.empty()) os << "# knobs " << entry.knobs << "\n";
  os << "# oracle " << oracle_name(entry.expect) << "\n";
  if (!entry.detail.empty()) os << "# detail " << entry.detail << "\n";
  if (!entry.fault_site.empty()) os << "# fault " << entry.fault_site << "\n";
  os << "# config " << entry.config_id << "\n";
  os << ir::to_text(entry.program);
  return os.str();
}

CorpusEntry corpus_from_text(const std::string& text, std::string name) {
  CorpusEntry entry;
  entry.name = std::move(name);
  std::istringstream is(text);
  std::string line;
  std::ostringstream body;
  bool saw_magic = false;
  while (std::getline(is, line)) {
    if (!line.empty() && line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, key;
      ls >> hash >> key;
      if (line == kMagic) {
        saw_magic = true;
      } else if (key == "seed") {
        std::string v;
        ls >> v;
        entry.seed = std::stoull(v, nullptr, 16);
      } else if (key == "knobs" || key == "detail") {
        std::string rest;
        std::getline(ls, rest);
        if (!rest.empty() && rest[0] == ' ') rest.erase(0, 1);
        (key == "knobs" ? entry.knobs : entry.detail) = rest;
      } else if (key == "oracle") {
        std::string v;
        ls >> v;
        entry.expect = oracle_from_name(v);
      } else if (key == "fault") {
        ls >> entry.fault_site;
      } else if (key == "config") {
        ls >> entry.config_id;
      } else {
        body << line << "\n";  // program-codec comment, keep for the parser
      }
    } else {
      body << line << "\n";
    }
  }
  if (!saw_magic)
    throw InvalidArgument("corpus entry missing '" + std::string(kMagic) +
                          "' header");
  entry.program = ir::from_text("# ucp-program v1\n" + body.str());
  return entry;
}

Status write_corpus_entry(const std::string& path, const CorpusEntry& entry) {
  return support::RecordLog::publish(path, corpus_to_text(entry));
}

Expected<CorpusEntry> read_corpus_entry(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    return Status(ErrorCode::kNotFound,
                  "cannot open corpus file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  std::string stem = path;
  const auto slash = stem.find_last_of('/');
  if (slash != std::string::npos) stem.erase(0, slash + 1);
  const auto dot = stem.rfind(".ucp");
  if (dot != std::string::npos) stem.erase(dot);
  try {
    return corpus_from_text(text.str(), stem);
  } catch (const std::exception& e) {
    return Status(ErrorCode::kCorruptCache,
                  "corpus file '" + path + "': " + e.what());
  }
}

std::vector<std::string> list_corpus_files(const std::string& dir) {
  std::vector<std::string> files;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return files;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".ucp") == 0)
      files.push_back(dir + "/" + name);
  }
  ::closedir(d);
  std::sort(files.begin(), files.end());
  return files;
}

Status replay_corpus_entry(const CorpusEntry& entry) {
  const auto issues = ir::verify_issues(entry.program);
  if (!issues.empty())
    return Status(ErrorCode::kAnalysisFailed,
                  "corpus program fails verification: " + issues[0].message);

  OracleOptions options;
  const cache::NamedCacheConfig& named =
      cache::paper_cache_config(entry.config_id);
  options.config = named.config;
  options.timing = energy::derive_timing(named.config, energy::TechNode::k45nm);

  if (!entry.fault_site.empty()) fault::arm(entry.fault_site);
  OracleReport report;
  try {
    report = check_program(entry.program, options);
  } catch (...) {
    if (!entry.fault_site.empty()) fault::disarm(entry.fault_site);
    throw;
  }
  if (!entry.fault_site.empty()) fault::disarm(entry.fault_site);

  if (report.violation != entry.expect)
    return Status(ErrorCode::kAuditFailed,
                  "replay of '" + entry.name + "' produced oracle '" +
                      oracle_name(report.violation) + "' (" + report.detail +
                      "), expected '" + oracle_name(entry.expect) + "'");
  return Status::Ok();
}

}  // namespace ucp::fuzz
