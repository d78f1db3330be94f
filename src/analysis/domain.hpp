#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "support/small_vector.hpp"

namespace ucp::analysis {

using cache::MemBlockId;

/// Abstract LRU age of a block inside one cache set. In the must domain an
/// age is an *upper* bound (block guaranteed resident with age <= h); in the
/// may domain it is a *lower* bound (block possibly resident, earliest age h).
/// These are the abstract cache states of Ferdinand's analysis, reviewed in
/// Section 3.1 of the paper (Definitions 1-2).
struct AgedBlock {
  MemBlockId block;
  std::uint8_t age;

  friend bool operator==(const AgedBlock&, const AgedBlock&) = default;
};

/// One abstract cache set: blocks sorted by id, each with an abstract age in
/// [0, assoc). Blocks aged past assoc-1 are dropped (abstractly evicted).
///
/// Entries live in a small inline buffer (the must domain holds at most
/// `assoc` blocks, the may domain rarely more), so updates, joins and state
/// copies on the fixpoint hot path perform no heap allocation.
class AbstractSet {
 public:
  /// Inline entry capacity; covers assoc <= 4 (the whole Table-2 grid) with
  /// join headroom before the heap fallback kicks in.
  static constexpr std::size_t kInlineEntries = 8;

  explicit AbstractSet(std::uint8_t assoc = 1) : assoc_(assoc) {}

  /// Age of `block`, or -1 if absent.
  int age_of(MemBlockId block) const;
  bool contains(MemBlockId block) const { return age_of(block) >= 0; }
  std::size_t size() const { return entries_.size(); }
  const SmallVector<AgedBlock, kInlineEntries>& entries() const {
    return entries_;
  }
  std::uint8_t assoc() const { return assoc_; }

  /// Must-domain LRU update on access to `block` (Ferdinand's U-hat).
  void update_must(MemBlockId block);
  /// May-domain LRU update on access to `block`.
  void update_may(MemBlockId block);

  /// Must join: intersection, maximal age. The result is what is guaranteed
  /// cached no matter which path executed.
  static AbstractSet join_must(const AbstractSet& a, const AbstractSet& b);
  /// May join: union, minimal age. The result is what may be cached on some
  /// path.
  static AbstractSet join_may(const AbstractSet& a, const AbstractSet& b);

  /// In-place accumulating joins for the fixpoint inner loop: *this becomes
  /// join(*this, other); returns true iff *this changed. Allocation-free.
  bool join_must_with(const AbstractSet& other);
  bool join_may_with(const AbstractSet& other);

  friend bool operator==(const AbstractSet&, const AbstractSet&) = default;

  std::string to_string() const;

 private:
  void insert_at_zero_aging(MemBlockId block, int old_age, bool may_domain);

  std::uint8_t assoc_;
  SmallVector<AgedBlock, kInlineEntries> entries_;  // sorted by block id
};

/// Thread confinement of abstract cache states is checked at run time in
/// debug builds and in the sanitizer builds (`UCP_SANITIZE`, which are
/// RelWithDebInfo and so define NDEBUG).
#if defined(UCP_STATE_OWNER_CHECKS) || !defined(NDEBUG)
#define UCP_STATE_OWNER_CHECKED 1
#endif

/// A whole abstract cache state: one AbstractSet per cache set. The paper's
/// c-hat : L -> P(S). Geometry (set count, associativity, set mapping) is
/// borrowed from a shared CacheConfig instead of copied per state.
///
/// Storage is a two-level copy-on-write tree. A refcounted root holds one
/// refcounted chunk pointer per kSetsPerChunk consecutive sets:
///  - copying a state (worklist seeding, incremental-trial boundary
///    snapshots, interning) bumps the root's refcount;
///  - a write clones the root's pointer array if the root is shared, then
///    the one chunk it touches if that chunk is shared — an LRU update
///    changes exactly one set, so it never copies the other sets;
///  - joins skip pointer-equal chunks and detach a chunk only when the join
///    changes one of its sets, so a no-op join keeps all sharing intact;
///  - pointer equality of roots or chunks is a free equality witness for
///    `operator==` and for the join fast path (`join(x, x) = x`), which is
///    what makes the hash-consing in the fixpoint driver pay off.
/// A root or chunk is written only while its holder has the sole reference,
/// and neither carries cached (`mutable`) fields, so shared storage is never
/// written at all.
///
/// The refcounts are intrusive and non-atomic, and a root is one allocation
/// (header plus its chunk pointers). That is sound because a state never
/// leaves the thread that made it: an analysis, its trials and the
/// optimizer run that prices them live inside one task on one worker, and
/// what crosses threads (`ucpd`'s result store) holds no states. Debug and
/// sanitizer builds check it on every refcount change and write. Storage
/// freed while a StatePool is open on the thread is recycled by the next
/// allocation (DESIGN.md §14.2).
class AbstractCache {
 public:
  /// Sets per copy-on-write chunk: the unit a write detaches.
  static constexpr std::uint32_t kSetsPerChunk = 8;

  explicit AbstractCache(const cache::CacheConfig& config);
  AbstractCache(const AbstractCache& other) noexcept
      : set_mask_(other.set_mask_), root_(other.root_) {
    if (root_) retain(root_);
  }
  AbstractCache(AbstractCache&& other) noexcept
      : set_mask_(other.set_mask_), root_(other.root_) {
    other.root_ = nullptr;
  }
  AbstractCache& operator=(const AbstractCache& other) noexcept {
    if (other.root_) retain(other.root_);  // first: self-assignment is safe
    if (root_) release(root_);
    set_mask_ = other.set_mask_;
    root_ = other.root_;
    return *this;
  }
  AbstractCache& operator=(AbstractCache&& other) noexcept {
    if (this != &other) {
      if (root_) release(root_);
      set_mask_ = other.set_mask_;
      root_ = other.root_;
      other.root_ = nullptr;
    }
    return *this;
  }
  ~AbstractCache() {
    if (root_) release(root_);
  }

  std::uint32_t num_sets() const { return set_mask_ + 1; }
  std::uint32_t set_index_of(MemBlockId block) const {
    return block & set_mask_;
  }
  const AbstractSet& set_for_block(MemBlockId block) const {
    return set_ref(set_index_of(block));
  }
  const AbstractSet& set_at(std::uint32_t index) const;

  void update_must(MemBlockId block) {
    writable_set(set_index_of(block)).update_must(block);
  }
  void update_may(MemBlockId block) {
    writable_set(set_index_of(block)).update_may(block);
  }
  bool must_contain(MemBlockId block) const {
    return set_for_block(block).contains(block);
  }
  bool may_contain(MemBlockId block) const {
    return set_for_block(block).contains(block);
  }

  static AbstractCache join_must(const AbstractCache& a,
                                 const AbstractCache& b);
  static AbstractCache join_may(const AbstractCache& a, const AbstractCache& b);

  /// In-place accumulating joins; *this becomes join(*this, other). Returns
  /// true iff any set changed. Joining a state with itself (shared root) is
  /// a pointer compare — the dominant reconvergence case under interning —
  /// and a join that changes nothing leaves this state's storage untouched.
  bool join_must_with(const AbstractCache& other);
  bool join_may_with(const AbstractCache& other);

  /// True iff both states alias one root (=> equal, O(1)).
  bool shares_storage_with(const AbstractCache& other) const {
    return root_ == other.root_;
  }

  /// FNV-1a over the entry lists; the hash-consing key of the fixpoint's
  /// state interner (deep equality confirms on collision).
  std::uint64_t content_hash() const;

  friend bool operator==(const AbstractCache& a, const AbstractCache& b) {
    return a.set_mask_ == b.set_mask_ &&
           (a.root_ == b.root_ || same_content(a, b));
  }

  std::string to_string() const;

  /// AbstractSets the calling thread has copied while detaching chunks,
  /// since the thread started. Callers publish differences of this tally
  /// (DESIGN.md §11: hot paths never touch shared state).
  static std::uint64_t sets_copied_on_this_thread();

  /// Roots and chunks of the calling thread: `live` ones are allocated and
  /// not yet freed; `retained` ones were freed into the thread's open
  /// StatePool and wait for reuse.
  struct StorageCounts {
    std::uint64_t live_roots = 0;
    std::uint64_t live_chunks = 0;
    std::uint64_t retained_roots = 0;
    std::uint64_t retained_chunks = 0;

    friend bool operator==(const StorageCounts&,
                           const StorageCounts&) = default;
  };
  static StorageCounts storage_on_this_thread();

 private:
  struct Chunk {
    std::uint32_t refs = 1;
#ifdef UCP_STATE_OWNER_CHECKED
    const void* owner = nullptr;
#endif
    std::array<AbstractSet, kSetsPerChunk> sets;  // unused tail stays empty
  };
  /// Header of a root; its `num_chunks` chunk pointers follow it in the
  /// same allocation.
  struct Root {
    std::uint32_t refs = 1;
    std::uint32_t num_chunks = 0;
#ifdef UCP_STATE_OWNER_CHECKED
    const void* owner = nullptr;
#endif
    Chunk** chunks() { return reinterpret_cast<Chunk**>(this + 1); }
    Chunk* const* chunks() const {
      return reinterpret_cast<Chunk* const*>(this + 1);
    }
  };
  static_assert(sizeof(Root) % alignof(Chunk*) == 0);

#ifdef UCP_STATE_OWNER_CHECKED
  /// Aborts unless the calling thread made `owner`'s storage.
  static void check_owner(const void* owner);
#define UCP_CHECK_STATE_OWNER(node) check_owner((node)->owner)
#else
#define UCP_CHECK_STATE_OWNER(node) static_cast<void>(0)
#endif

  static void retain(Root* root) {
    UCP_CHECK_STATE_OWNER(root);
    ++root->refs;
  }
  static void release(Root* root) {
    UCP_CHECK_STATE_OWNER(root);
    if (--root->refs == 0) free_root(root);
  }
  static void free_root(Root* root);
  static void release_chunk(Chunk* chunk);
  static Root* new_root(std::uint32_t num_chunks);
  static Chunk* new_chunk(const std::array<AbstractSet, kSetsPerChunk>& sets);

  const AbstractSet& set_ref(std::uint32_t index) const {
    return root_->chunks()[index / kSetsPerChunk]->sets[index % kSetsPerChunk];
  }
  /// The set at `index`, writable: detaches the root and that set's chunk
  /// when either is shared.
  AbstractSet& writable_set(std::uint32_t index) {
    UCP_CHECK_STATE_OWNER(root_);
    if (root_->refs != 1) detach_root();
    Chunk*& chunk = root_->chunks()[index / kSetsPerChunk];
    UCP_CHECK_STATE_OWNER(chunk);
    if (chunk->refs != 1) detach_chunk(chunk);
    return chunk->sets[index % kSetsPerChunk];
  }
  void detach_root();
  void detach_chunk(Chunk*& chunk);
  template <bool kMust>
  bool join_with(const AbstractCache& other);
  static bool same_content(const AbstractCache& a, const AbstractCache& b);

  std::uint32_t set_mask_ = 0;  ///< num_sets - 1 (power of two)
  Root* root_ = nullptr;
};

#undef UCP_CHECK_STATE_OWNER

/// Recycles the storage of the abstract cache states that die on the
/// calling thread while it is open: a freed root or chunk goes onto the
/// pool's free list and the next allocation of its size takes it back, so
/// the rejected trials of an optimizer run reuse each other's storage
/// instead of returning it to malloc. Open one per task (one
/// `run_use_case_group` call, one `optimize_prefetches` call); closing the
/// pool frees everything it retained, so recycled storage never outlives
/// its task. Opening costs nothing and allocates nothing. A pool opened
/// while another is open on the thread is inert, and the outer one keeps
/// recycling. Not movable: a pool belongs to the scope that opened it.
class StatePool {
 public:
  StatePool();
  ~StatePool();
  StatePool(const StatePool&) = delete;
  StatePool& operator=(const StatePool&) = delete;

 private:
  bool outermost_;
};

}  // namespace ucp::analysis
