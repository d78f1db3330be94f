#include "serve/request_journal.hpp"

namespace ucp::serve {

namespace {

std::string row_body(const std::string& id, const std::string& fingerprint,
                     const std::string& response_text) {
  return "req," + support::escape_cell(id) + "," + fingerprint + "," +
         support::escape_cell(response_text);
}

}  // namespace

Status RequestJournal::open(const std::string& path) {
  restored_ = 0;
  entries_.clear();
  const Status opened =
      log_.open(path, {"ucp-serve-journal", 1}, [&](std::string_view body) {
        const std::vector<std::string> cells = support::split_cells(body);
        if (cells.size() != 4 || cells[0] != "req" || cells[2].size() != 16)
          return false;
        std::string id = support::unescape_cell(cells[1]);
        if (id.empty()) return false;
        // Later rows win: a duplicate id can only appear if a torn-tail
        // truncation re-ran the request, and the re-run's row is the one
        // that was acknowledged last.
        Entry entry{cells[2], support::unescape_cell(cells[3])};
        if (entries_.insert_or_assign(std::move(id), std::move(entry)).second)
          ++restored_;
        return true;
      });
  if (!log_.reset_reason().empty())
    note_ = "request journal reset (" + log_.reset_reason() + ")";
  else if (log_.created())
    note_ = "request journal started at '" + path + "'";
  else
    note_ = "restored " + std::to_string(restored_) +
            " journaled responses from '" + path + "'" +
            (log_.truncated() ? " (torn tail truncated)" : "");
  return opened;
}

Status RequestJournal::append(const std::string& id,
                              const std::string& fingerprint,
                              const std::string& response_text) {
  const Status appended =
      log_.append({row_body(id, fingerprint, response_text)});
  if (appended.ok())
    entries_.insert_or_assign(id, Entry{fingerprint, response_text});
  return appended;
}

const RequestJournal::Entry* RequestJournal::find(const std::string& id)
    const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace ucp::serve
