#include "analysis/domain.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

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

/// A freed root or chunk waiting in a StatePool: its first word links the
/// free list.
struct FreeBlock {
  FreeBlock* next;
};

/// Free roots of one size (chunk count).
struct RootFreeList {
  std::uint32_t num_chunks = 0;
  FreeBlock* head = nullptr;
};

/// The calling thread's state storage: its tallies and, while a StatePool
/// is open, its free lists. A task's states share one geometry (one
/// configuration per task), so a few root sizes cover it; a root of yet
/// another size is simply freed.
struct ThreadStorage {
  std::uint64_t sets_copied = 0;
  AbstractCache::StorageCounts counts;
  bool pool_open = false;
  FreeBlock* chunks = nullptr;
  std::array<RootFreeList, 4> roots;
};

thread_local ThreadStorage t_storage;

// A block waiting in a pool is poisoned past its link word, so AddressSanitizer
// still reports a use of a freed state whose storage was not returned to
// malloc. Freeing a poisoned block to malloc is allowed.
#if defined(__SANITIZE_ADDRESS__)
#define UCP_POISON_FREE_BLOCK(block, bytes)                          \
  ASAN_POISON_MEMORY_REGION(                                         \
      static_cast<char*>(static_cast<void*>(block)) + sizeof(FreeBlock), \
      (bytes) - sizeof(FreeBlock))
#define UCP_UNPOISON_BLOCK(block, bytes) \
  ASAN_UNPOISON_MEMORY_REGION(block, bytes)
#else
#define UCP_POISON_FREE_BLOCK(block, bytes) static_cast<void>(0)
#define UCP_UNPOISON_BLOCK(block, bytes) static_cast<void>(0)
#endif

void push(FreeBlock*& head, void* block) {
  FreeBlock* b = static_cast<FreeBlock*>(block);
  b->next = head;
  head = b;
}

void* pop(FreeBlock*& head) {
  FreeBlock* b = head;
  head = b->next;
  return b;
}

}  // namespace

StatePool::StatePool() : outermost_(!t_storage.pool_open) {
  t_storage.pool_open = true;
}

StatePool::~StatePool() {
  if (!outermost_) return;
  ThreadStorage& t = t_storage;
  while (t.chunks) {
    ::operator delete(pop(t.chunks));
    --t.counts.retained_chunks;
  }
  for (RootFreeList& list : t.roots) {
    while (list.head) {
      ::operator delete(pop(list.head));
      --t.counts.retained_roots;
    }
    list.num_chunks = 0;
  }
  t.pool_open = false;
}

#ifdef UCP_STATE_OWNER_CHECKED
void AbstractCache::check_owner(const void* owner) {
  if (owner == &t_storage) return;
  std::fprintf(stderr,
               "ucp: an abstract cache state was shared across threads "
               "(made on one thread, copied, written or freed on another)\n");
  std::abort();
}
#define UCP_CHECK_STATE_OWNER(node) check_owner((node)->owner)
#define UCP_SET_STATE_OWNER(node) ((node)->owner = &t_storage)
#else
#define UCP_CHECK_STATE_OWNER(node) static_cast<void>(0)
#define UCP_SET_STATE_OWNER(node) static_cast<void>(0)
#endif

AbstractCache::Root* AbstractCache::new_root(std::uint32_t num_chunks) {
  ThreadStorage& t = t_storage;
  const std::size_t bytes = sizeof(Root) + sizeof(Chunk*) * num_chunks;
  void* block = nullptr;
  if (t.pool_open) {
    for (RootFreeList& list : t.roots) {
      if (list.num_chunks != num_chunks || !list.head) continue;
      block = pop(list.head);
      UCP_UNPOISON_BLOCK(block, bytes);
      --t.counts.retained_roots;
      break;
    }
  }
  if (!block) block = ::operator new(bytes);
  ++t.counts.live_roots;
  Root* root = new (block) Root;
  root->num_chunks = num_chunks;
  UCP_SET_STATE_OWNER(root);
  return root;
}

AbstractCache::Chunk* AbstractCache::new_chunk(
    const std::array<AbstractSet, kSetsPerChunk>& sets) {
  ThreadStorage& t = t_storage;
  void* block = nullptr;
  if (t.pool_open && t.chunks) {
    block = pop(t.chunks);
    UCP_UNPOISON_BLOCK(block, sizeof(Chunk));
    --t.counts.retained_chunks;
  } else {
    block = ::operator new(sizeof(Chunk));
  }
  ++t.counts.live_chunks;
  Chunk* chunk = new (block) Chunk{1,
#ifdef UCP_STATE_OWNER_CHECKED
                                   nullptr,
#endif
                                   sets};
  UCP_SET_STATE_OWNER(chunk);
  return chunk;
}

void AbstractCache::release_chunk(Chunk* chunk) {
  UCP_CHECK_STATE_OWNER(chunk);
  if (--chunk->refs != 0) return;
  chunk->~Chunk();
  ThreadStorage& t = t_storage;
  --t.counts.live_chunks;
  if (t.pool_open) {
    push(t.chunks, chunk);
    UCP_POISON_FREE_BLOCK(chunk, sizeof(Chunk));
    ++t.counts.retained_chunks;
  } else {
    ::operator delete(chunk);
  }
}

void AbstractCache::free_root(Root* root) {
  const std::uint32_t num_chunks = root->num_chunks;
  for (std::uint32_t c = 0; c < num_chunks; ++c)
    release_chunk(root->chunks()[c]);
  root->~Root();
  ThreadStorage& t = t_storage;
  --t.counts.live_roots;
  if (t.pool_open) {
    for (RootFreeList& list : t.roots) {
      if (list.head && list.num_chunks != num_chunks) continue;
      list.num_chunks = num_chunks;
      push(list.head, root);
      UCP_POISON_FREE_BLOCK(root, sizeof(Root) + sizeof(Chunk*) * num_chunks);
      ++t.counts.retained_roots;
      return;
    }
  }
  ::operator delete(root);
}

AbstractCache::AbstractCache(const cache::CacheConfig& config) {
  config.validate();
  UCP_REQUIRE(config.assoc <= 255, "associativity too large for age domain");
  set_mask_ = config.num_sets() - 1;
  // Every chunk of the empty state is the same empty chunk; the first write
  // to a set gives its chunk a private copy.
  std::array<AbstractSet, kSetsPerChunk> empty_sets;
  empty_sets.fill(AbstractSet(static_cast<std::uint8_t>(config.assoc)));
  const std::uint32_t num_chunks =
      (num_sets() + kSetsPerChunk - 1) / kSetsPerChunk;
  Chunk* empty = new_chunk(empty_sets);
  empty->refs = num_chunks;
  root_ = new_root(num_chunks);
  std::fill_n(root_->chunks(), num_chunks, empty);
}

const AbstractSet& AbstractCache::set_at(std::uint32_t index) const {
  UCP_REQUIRE(index < num_sets(), "set index out of range");
  return set_ref(index);
}

std::uint64_t AbstractCache::sets_copied_on_this_thread() {
  return t_storage.sets_copied;
}

AbstractCache::StorageCounts AbstractCache::storage_on_this_thread() {
  return t_storage.counts;
}

void AbstractCache::detach_root() {
  Root* copy = new_root(root_->num_chunks);
  for (std::uint32_t c = 0; c < root_->num_chunks; ++c) {
    Chunk* chunk = root_->chunks()[c];
    UCP_CHECK_STATE_OWNER(chunk);
    ++chunk->refs;
    copy->chunks()[c] = chunk;
  }
  --root_->refs;  // shared, so another holder keeps it alive
  root_ = copy;
}

void AbstractCache::detach_chunk(Chunk*& chunk) {
  Chunk* copy = new_chunk(chunk->sets);
  --chunk->refs;  // shared, so another root keeps it alive
  chunk = copy;
  t_storage.sets_copied += std::min(kSetsPerChunk, num_sets());
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
  for (std::uint32_t c = 0; c < root_->num_chunks; ++c) {
    if (root_->chunks()[c] == other.root_->chunks()[c]) continue;
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
  for (std::uint32_t c = 0; c < a.root_->num_chunks; ++c) {
    const Chunk* ca = a.root_->chunks()[c];
    const Chunk* cb = b.root_->chunks()[c];
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
