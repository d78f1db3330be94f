#include "support/fault_injection.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_map>

#include "support/check.hpp"

namespace ucp::fault {

namespace {

// Every fault point in the codebase, by module. Adding a site requires
// adding both the UCP_FAULT_POINT call and an entry here, which is what
// lets the property suite enumerate and arm each path.
const char* const kSites[] = {
    "sim.step",        // interpreter dynamic instruction budget check
    "wcet.solve",      // IPET solve boundary
    "core.reanalyze",  // per-candidate re-analysis in the optimizer
    "core.cancel",     // optimizer cancellation exit (as on a watchdog fire)
    "exp.measure",     // analyze+simulate boundary of one binary
    "exp.task",        // sweep worker task boundary (arbitrary exception)
    "io.journal_write",   // sweep/fuzz journal append (durable checkpoint)
    "io.journal_kill",    // hard-kill (SIGKILL) mid-append, torn record left
    "supervisor.cancel",  // watchdog cancellation at task registration
    "audit.mismatch",     // soundness auditor forced to report a violation
    "obs.sink_write",     // trace/metrics sink I/O (degrades to a warning)
    "obs.flight_dump",    // flight-recorder dump I/O (degrades to a warning)
    "gen.build",          // synthetic generator program-construction boundary
    "fuzz.oracle",        // forced oracle violation (pins the triage path)
    "fuzz.shrink",        // shrink-step boundary (abandons minimization)
    "serve.accept",        // daemon accept boundary (connection dropped)
    "serve.read",          // request read boundary (connection dropped)
    "serve.parse",         // request parse boundary (structured error reply)
    "serve.process",       // per-request pipeline boundary (contained)
    "serve.journal_write", // request-journal append (journaling disabled)
    "serve.respond",       // response write boundary (connection dropped)
    "serve.admin_write",   // admin-plane scrape write (connection dropped)
};

struct SiteState {
  bool armed = false;
  std::uint64_t countdown = 0;  ///< hits to let through before firing
  std::uint64_t shots = 1;      ///< firings left before auto-disarm
  std::uint64_t hits = 0;
};

struct Registry {
  std::mutex mutex;
  std::unordered_map<std::string, SiteState> sites;

  Registry() {
    for (const char* s : kSites) sites.emplace(s, SiteState{});
  }

  SiteState& state(const std::string& site) {
    auto it = sites.find(site);
    UCP_REQUIRE(it != sites.end(),
                "unknown fault-injection site '" + site + "'");
    return it->second;
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

// Count of currently armed sites; the unarmed fast path reads only this.
std::atomic<int> g_armed_count{0};

}  // namespace

const std::vector<std::string>& known_sites() {
  static const std::vector<std::string> names(std::begin(kSites),
                                              std::end(kSites));
  return names;
}

void arm(const std::string& site, std::uint64_t skip,
         std::uint64_t shots) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  SiteState& s = r.state(site);
  if (!s.armed) g_armed_count.fetch_add(1, std::memory_order_relaxed);
  s.armed = true;
  s.countdown = skip;
  s.shots = std::max<std::uint64_t>(1, shots);
}

void disarm(const std::string& site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  SiteState& s = r.state(site);
  if (s.armed) g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  s.armed = false;
}

void disarm_all() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& [name, s] : r.sites) {
    if (s.armed) g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    s.armed = false;
  }
}

std::uint64_t hit_count(const std::string& site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.state(site).hits;
}

bool should_fail(const char* site) {
  if (g_armed_count.load(std::memory_order_relaxed) == 0) return false;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  SiteState& s = r.state(site);
  ++s.hits;
  if (!s.armed) return false;
  if (s.countdown > 0) {
    --s.countdown;
    return false;
  }
  if (--s.shots == 0) {  // fires `shots` times, then auto-disarms
    s.armed = false;
    g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
  return true;
}

}  // namespace ucp::fault
