#pragma once

// The ucpd result store: the answers of clean pipeline runs, so a repeated
// request, or the other tech node of an answered (program, geometry), costs
// a lookup instead of a pipeline run. Two levels, keyed by request content
// only: the program text's hash maps to the program's exp::ProgramSystem
// and its groups; a group is one (cache geometry, deadline, attempts) with
// at most one answer per tech node. Bounded in bytes, it evicts whole
// groups in LRU order, and a program's system leaves with its last group.

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exp/harness.hpp"
#include "serve/protocol.hpp"

namespace ucp::serve {

/// The daemon's bound: the whole 2,664-case grid fits with room to spare
/// (16.1 MB charged: 12.5 MB of answers, 3.6 MB of program systems).
inline constexpr std::size_t kResultStoreBytes = std::size_t{24} << 20;

class ResultStore {
 public:
  explicit ResultStore(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  /// The stored answer to `request`, or nullopt; counts a hit or a miss.
  std::optional<Response> find(const Request& request);
  /// The program system a stored group of the request's program holds.
  std::shared_ptr<const exp::ProgramSystem> system(const Request& request);
  /// Adds `answers` (tech node, answer) to the request's group. A tech
  /// already answered keeps its answer: racing computations of one group
  /// are bit-identical, so the first insert wins.
  void insert(const Request& request,
              std::shared_ptr<const exp::ProgramSystem> system,
              std::vector<std::pair<energy::TechNode, Response>> answers);

  std::size_t bytes() const;
  std::uint64_t evictions() const;

 private:
  struct Group {
    std::uint64_t program = 0;
    std::string key;
    std::array<std::optional<Response>, 2> answers;  ///< by energy::TechNode
    std::size_t bytes = 0;
  };
  struct Program {
    std::shared_ptr<const exp::ProgramSystem> system;
    std::size_t bytes = 0;  ///< the system's charge
    std::unordered_map<std::string, std::list<Group>::iterator> groups;
  };

  const std::size_t max_bytes_;
  mutable std::mutex mutex_;
  std::list<Group> lru_;  ///< most recently used first
  std::unordered_map<std::uint64_t, Program> programs_;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace ucp::serve
