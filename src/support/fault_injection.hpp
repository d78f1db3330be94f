#pragma once

// Deterministic fault-injection registry.
//
// Compiled in always, no-op unless armed: the hot-path cost of an unarmed
// fault point is one relaxed atomic load. Tests arm a named site to force
// the failure path guarded by that site — every resource-budget check and
// I/O boundary in the pipeline carries one — and assert that the sweep
// quarantines the affected use case instead of terminating.
//
//   fault::ScopedFault f("sim.step");      // one-shot: first hit fires
//   ... run a sweep; the first simulation degrades, the sweep completes ...
//
// Sites are registered centrally in fault_injection.cpp (known_sites()) so
// property tests can enumerate them without touching every module.

#include <cstdint>
#include <string>
#include <vector>

namespace ucp::fault {

/// All registered site names, in stable order. A site listed here is
/// guaranteed to have a matching UCP_FAULT_POINT in the code.
const std::vector<std::string>& known_sites();

/// Arms `site`: its fault point returns true `shots` times (default once),
/// after `skip` additional hits are let through first (skip = 0 fires on
/// the next hit). `shots > 1` makes a retried operation fail on consecutive
/// attempts — the retry-ladder suites use it to exhaust every rung. Arming
/// an unknown site throws InvalidArgument. Re-arming resets the countdown.
void arm(const std::string& site, std::uint64_t skip = 0,
         std::uint64_t shots = 1);

/// Disarms one site / every site. Safe to call for never-armed sites.
void disarm(const std::string& site);
void disarm_all();

/// Number of times `site`'s fault point was evaluated while any site was
/// armed (hit accounting is off on the unarmed fast path by design).
std::uint64_t hit_count(const std::string& site);

/// True iff the site should fail now; consumes the armed state when firing.
/// The unarmed fast path is a single relaxed atomic load.
bool should_fail(const char* site);

/// RAII arming for tests: disarms the site on scope exit.
class ScopedFault {
 public:
  explicit ScopedFault(std::string site, std::uint64_t skip = 0,
                       std::uint64_t shots = 1)
      : site_(std::move(site)) {
    arm(site_, skip, shots);
  }
  ~ScopedFault() { disarm(site_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string site_;
};

}  // namespace ucp::fault

/// Evaluates to true when the named site is armed and due to fire. Usable in
/// any boolean context: `if (over_budget || UCP_FAULT_POINT("sim.step"))`.
#define UCP_FAULT_POINT(site) (::ucp::fault::should_fail(site))
