#include "analysis/domain.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"

namespace ucp::analysis {

int AbstractSet::age_of(MemBlockId block) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), block,
      [](const AgedBlock& e, MemBlockId b) { return e.block < b; });
  if (it != entries_.end() && it->block == block) return it->age;
  return -1;
}

void AbstractSet::insert_at_zero_aging(MemBlockId block, int old_age,
                                       bool may_domain) {
  // Blocks with age strictly below the threshold are pushed one step older;
  // in the may domain blocks sharing the accessed block's age move too.
  const int threshold =
      old_age < 0 ? assoc_ : (may_domain ? old_age + 1 : old_age);

  for (AgedBlock& e : entries_) {
    if (e.block == block) continue;
    if (e.age < threshold) ++e.age;
  }
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](const AgedBlock& e) {
                                  return e.block != block &&
                                         e.age >= assoc_;
                                }),
                 entries_.end());

  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), block,
      [](const AgedBlock& e, MemBlockId b) { return e.block < b; });
  if (it != entries_.end() && it->block == block) {
    it->age = 0;
  } else {
    entries_.insert(it, AgedBlock{block, 0});
  }
}

void AbstractSet::update_must(MemBlockId block) {
  insert_at_zero_aging(block, age_of(block), /*may_domain=*/false);
}

void AbstractSet::update_may(MemBlockId block) {
  insert_at_zero_aging(block, age_of(block), /*may_domain=*/true);
}

AbstractSet AbstractSet::join_must(const AbstractSet& a, const AbstractSet& b) {
  UCP_REQUIRE(a.assoc_ == b.assoc_, "joining sets of different associativity");
  AbstractSet out(a.assoc_);
  auto ia = a.entries_.begin();
  auto ib = b.entries_.begin();
  while (ia != a.entries_.end() && ib != b.entries_.end()) {
    if (ia->block < ib->block) {
      ++ia;
    } else if (ib->block < ia->block) {
      ++ib;
    } else {
      out.entries_.push_back(
          AgedBlock{ia->block, std::max(ia->age, ib->age)});
      ++ia;
      ++ib;
    }
  }
  return out;
}

AbstractSet AbstractSet::join_may(const AbstractSet& a, const AbstractSet& b) {
  UCP_REQUIRE(a.assoc_ == b.assoc_, "joining sets of different associativity");
  AbstractSet out(a.assoc_);
  auto ia = a.entries_.begin();
  auto ib = b.entries_.begin();
  while (ia != a.entries_.end() || ib != b.entries_.end()) {
    if (ib == b.entries_.end() ||
        (ia != a.entries_.end() && ia->block < ib->block)) {
      out.entries_.push_back(*ia++);
    } else if (ia == a.entries_.end() || ib->block < ia->block) {
      out.entries_.push_back(*ib++);
    } else {
      out.entries_.push_back(
          AgedBlock{ia->block, std::min(ia->age, ib->age)});
      ++ia;
      ++ib;
    }
  }
  return out;
}

bool AbstractSet::join_must_with(const AbstractSet& other) {
  UCP_REQUIRE(assoc_ == other.assoc_,
              "joining sets of different associativity");
  // Intersection with maximal age: the result is a subsequence of the
  // current entries, so it can be built in place with a read cursor ahead
  // of (or at) the write cursor. No allocation, no temporary.
  bool changed = false;
  std::size_t write = 0;
  auto ib = other.entries_.begin();
  for (std::size_t read = 0; read < entries_.size(); ++read) {
    const AgedBlock e = entries_[read];
    while (ib != other.entries_.end() && ib->block < e.block) ++ib;
    if (ib == other.entries_.end() || ib->block != e.block) {
      changed = true;  // entry dropped from the intersection
      continue;
    }
    const std::uint8_t age = std::max(e.age, ib->age);
    if (age != e.age) changed = true;
    entries_[write++] = AgedBlock{e.block, age};
    ++ib;
  }
  entries_.resize(write);
  return changed;
}

bool AbstractSet::join_may_with(const AbstractSet& other) {
  UCP_REQUIRE(assoc_ == other.assoc_,
              "joining sets of different associativity");
  // Fast path: the union adds nothing and lowers no age — detect without
  // writing, since in a converging fixpoint most joins are no-ops.
  bool grows = false;
  {
    auto ia = entries_.begin();
    for (const AgedBlock& eb : other.entries_) {
      while (ia != entries_.end() && ia->block < eb.block) ++ia;
      if (ia == entries_.end() || ia->block != eb.block ||
          eb.age < ia->age) {
        grows = true;
        break;
      }
    }
  }
  if (!grows) return false;

  SmallVector<AgedBlock, kInlineEntries> merged;
  auto ia = entries_.begin();
  auto ib = other.entries_.begin();
  while (ia != entries_.end() || ib != other.entries_.end()) {
    if (ib == other.entries_.end() ||
        (ia != entries_.end() && ia->block < ib->block)) {
      merged.push_back(*ia++);
    } else if (ia == entries_.end() || ib->block < ia->block) {
      merged.push_back(*ib++);
    } else {
      merged.push_back(AgedBlock{ia->block, std::min(ia->age, ib->age)});
      ++ia;
      ++ib;
    }
  }
  entries_ = std::move(merged);
  return true;
}

std::string AbstractSet::to_string() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i) os << ", ";
    os << "s" << entries_[i].block << "@" << int(entries_[i].age);
  }
  os << "}";
  return os.str();
}

namespace {

/// Per-thread tally behind AbstractCache::sets_copied_on_this_thread().
thread_local std::uint64_t t_sets_copied = 0;

}  // namespace

AbstractCache::AbstractCache(const cache::CacheConfig& config) {
  config.validate();
  UCP_REQUIRE(config.assoc <= 255, "associativity too large for age domain");
  set_mask_ = config.num_sets() - 1;
  // Every chunk of the empty state is the same empty chunk; the first write
  // to a set gives its chunk a private copy.
  auto empty = std::make_shared<Chunk>();
  empty->sets.fill(AbstractSet(static_cast<std::uint8_t>(config.assoc)));
  root_ = std::make_shared<Root>();
  root_->chunks.assign((num_sets() + kSetsPerChunk - 1) / kSetsPerChunk,
                       empty);
}

const AbstractSet& AbstractCache::set_at(std::uint32_t index) const {
  UCP_REQUIRE(index < num_sets(), "set index out of range");
  return set_ref(index);
}

std::uint64_t AbstractCache::sets_copied_on_this_thread() {
  return t_sets_copied;
}

void AbstractCache::detach_root() {
  root_ = std::make_shared<Root>(*root_);
}

void AbstractCache::detach_chunk(std::shared_ptr<Chunk>& chunk) {
  chunk = std::make_shared<Chunk>(*chunk);
  t_sets_copied += std::min(kSetsPerChunk, num_sets());
}

namespace {

void require_same_geometry(const AbstractCache& a, const AbstractCache& b) {
  UCP_REQUIRE(a.num_sets() == b.num_sets() &&
                  a.set_at(0).assoc() == b.set_at(0).assoc(),
              "joining caches of different geometry");
}

}  // namespace

AbstractCache AbstractCache::join_must(const AbstractCache& a,
                                       const AbstractCache& b) {
  require_same_geometry(a, b);
  AbstractCache out = a;
  out.join_must_with(b);
  return out;
}

AbstractCache AbstractCache::join_may(const AbstractCache& a,
                                      const AbstractCache& b) {
  require_same_geometry(a, b);
  AbstractCache out = a;
  out.join_may_with(b);
  return out;
}

template <bool kMust>
bool AbstractCache::join_with(const AbstractCache& other) {
  require_same_geometry(*this, other);
  if (root_ == other.root_) return false;  // join(x, x) = x
  bool changed = false;
  const std::uint32_t n = num_sets();
  for (std::uint32_t c = 0; c < root_->chunks.size(); ++c) {
    if (root_->chunks[c] == other.root_->chunks[c]) continue;
    const std::uint32_t end = std::min(n, (c + 1) * kSetsPerChunk);
    for (std::uint32_t i = c * kSetsPerChunk; i < end; ++i) {
      const AbstractSet& theirs = other.set_ref(i);
      if (set_ref(i) == theirs) continue;  // join is idempotent
      // Join into a scratch copy so that only a set the join changes gets
      // written — and only then is its chunk detached.
      AbstractSet joined = set_ref(i);
      const bool set_changed = kMust ? joined.join_must_with(theirs)
                                     : joined.join_may_with(theirs);
      if (!set_changed) continue;
      writable_set(i) = std::move(joined);
      changed = true;
    }
  }
  return changed;
}

bool AbstractCache::join_must_with(const AbstractCache& other) {
  return join_with<true>(other);
}

bool AbstractCache::join_may_with(const AbstractCache& other) {
  return join_with<false>(other);
}

bool AbstractCache::same_content(const AbstractCache& a,
                                 const AbstractCache& b) {
  // Unused tail sets of a partial chunk are never written, so whole-chunk
  // comparison equals comparison of the live sets.
  for (std::size_t c = 0; c < a.root_->chunks.size(); ++c) {
    const Chunk* ca = a.root_->chunks[c].get();
    const Chunk* cb = b.root_->chunks[c].get();
    if (ca != cb && ca->sets != cb->sets) return false;
  }
  return true;
}

std::uint64_t AbstractCache::content_hash() const {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (std::uint32_t i = 0; i < num_sets(); ++i) {
    const AbstractSet& s = set_ref(i);
    mix(s.size() + 0x9e3779b97f4a7c15ull);
    for (const AgedBlock& e : s.entries()) {
      mix(e.block);
      mix(e.age);
    }
  }
  return h;
}

std::string AbstractCache::to_string() const {
  std::ostringstream os;
  for (std::uint32_t i = 0; i < num_sets(); ++i) {
    const AbstractSet& s = set_ref(i);
    if (s.size() == 0) continue;
    os << "set" << i << " " << s.to_string() << "\n";
  }
  return os.str();
}

}  // namespace ucp::analysis
