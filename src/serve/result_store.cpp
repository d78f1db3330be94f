#include "serve/result_store.hpp"

#include "obs/metrics.hpp"
#include "support/record_log.hpp"

namespace ucp::serve {

namespace {

std::string group_key(const Request& r) {
  return std::to_string(r.config.assoc) + "/" +
         std::to_string(r.config.block_bytes) + "/" +
         std::to_string(r.config.capacity_bytes) + "/" +
         std::to_string(r.deadline_ms) + "/" + std::to_string(r.attempts);
}

std::size_t answer_bytes(const Response& r) {
  return sizeof(Response) + r.detail.size() + r.audit.size() +
         r.program_text.size();
}

/// glibc's mallinfo2 puts a suite program's system (program copy, context
/// graph and the IPET system's loop regions) at 0.25 to 1.3 KB per
/// context-graph node, the most on the smallest graphs; 626 B on nsichneu,
/// the largest, and 517 B pooled over the suite.
std::size_t system_bytes(const exp::ProgramSystem* system) {
  return system ? 640 * system->graph.num_nodes() : 0;
}

void count(const char* name, std::uint64_t n = 1) {
  if (obs::enabled() && n > 0) obs::registry().counter(name).add(n);
}

}  // namespace

std::optional<Response> ResultStore::find(const Request& request) {
  std::optional<Response> hit;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto program = programs_.find(support::fnv1a(request.program_text));
    if (program != programs_.end()) {
      const auto group = program->second.groups.find(group_key(request));
      if (group != program->second.groups.end()) {
        hit = group->second->answers[static_cast<std::size_t>(request.tech)];
        if (hit) lru_.splice(lru_.begin(), lru_, group->second);
      }
    }
  }
  count(hit ? "serve.store.hits" : "serve.store.misses");
  return hit;
}

std::shared_ptr<const exp::ProgramSystem> ResultStore::system(
    const Request& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = programs_.find(support::fnv1a(request.program_text));
  return it == programs_.end() ? nullptr : it->second.system;
}

void ResultStore::insert(
    const Request& request, std::shared_ptr<const exp::ProgramSystem> system,
    std::vector<std::pair<energy::TechNode, Response>> answers) {
  if (answers.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t hash = support::fnv1a(request.program_text);
  Program& program = programs_[hash];
  if (!program.system && system) {
    program.system = std::move(system);
    program.bytes = system_bytes(program.system.get());
    bytes_ += program.bytes;
  }
  auto [slot, fresh] = program.groups.try_emplace(group_key(request));
  if (fresh) {
    lru_.push_front(Group{hash, slot->first, {}, sizeof(Group)});
    slot->second = lru_.begin();
    bytes_ += sizeof(Group);
  }
  Group& group = *slot->second;
  for (auto& [tech, answer] : answers) {
    std::optional<Response>& kept = group.answers[static_cast<std::size_t>(tech)];
    if (kept) continue;
    group.bytes += answer_bytes(answer);
    bytes_ += answer_bytes(answer);
    kept = std::move(answer);
  }

  const std::uint64_t before = evictions_;
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    const Group& victim = lru_.back();
    Program& owner = programs_.at(victim.program);
    owner.groups.erase(victim.key);
    bytes_ -= victim.bytes;
    if (owner.groups.empty()) {
      bytes_ -= owner.bytes;
      programs_.erase(victim.program);
    }
    lru_.pop_back();
    ++evictions_;
  }
  count("serve.store.evictions", evictions_ - before);
  if (obs::enabled())
    obs::registry().gauge("serve.store.bytes").set(
        static_cast<std::int64_t>(bytes_));
}

std::size_t ResultStore::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::uint64_t ResultStore::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

}  // namespace ucp::serve
