#ifndef DIRECTLOAD_MEMTABLE_MEM_INDEX_H_
#define DIRECTLOAD_MEMTABLE_MEM_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/slice.h"
#include "memtable/skiplist.h"

namespace directload {

/// One item of QinDB's memory-resident table (paper Section 2.3): the
/// versioned key, the offset of the record in the AOFs, and the two flags
/// the mutated operations rely on — `r` (the value field was removed by
/// Bifrost's deduplication) and `d` (the pair was deleted; space reclaimed
/// lazily by AOF GC).
///
/// The identity fields (key, version) are immutable once the entry is
/// published through the skip list. The state fields are atomics because
/// they are mutated in place by writers and the GC while reader threads
/// traverse the index lock-free; each field is individually coherent and
/// readers tolerate (and retry on) cross-field races such as an address
/// observed next to a stale value_size.
struct MemEntry {
  const char* key_data;
  uint32_t key_size;
  uint64_t version;

  // Opaque AOF record address (owned by the AOF layer). Patched by re-PUTs
  // and by GC relocation while reads are in flight.
  std::atomic<uint64_t> address;
  // Stored value length; 0 when the value is NULL.
  std::atomic<uint32_t> value_size;
  std::atomic<bool> dedup;    // 'r' flag: value removed, resolve by traceback.
  std::atomic<bool> deleted;  // 'd' flag: logically deleted, awaiting GC.
  std::atomic<bool> purged;   // Physically dropped from the index (post-GC).

  Slice user_key() const { return Slice(key_data, key_size); }
};

/// QinDB's memtable: a skip list of MemEntry ordered by user key ascending
/// and version *descending*, so that all versions of a key are adjacent and
/// a traceback (find the newest older version that still carries a value) is
/// a forward scan. The paper orders versions ascending; descending is the
/// standard equivalent that makes newest-first reads O(1) after the seek.
///
/// The skip list never physically unlinks nodes; `Purge` marks an entry
/// invisible and `CompactInto` rebuilds a dense index (used after version
/// pruning and during checkpoint load).
///
/// Thread model: one mutator at a time — Insert/Purge/CompactInto require
/// the caller's write lock (the engine's LockRank::kQinDbWrite mutex; the
/// index itself is deliberately lock-free and carries no capability of its
/// own, which is why the contract lives in this comment rather than in a
/// REQUIRES annotation). Lookups and iteration are lock-free and may run
/// concurrently with the mutator. Entries and their keys are arena-backed,
/// so pointers handed to readers stay valid for the index's lifetime.
class MemIndex {
 public:
  explicit MemIndex(uint64_t seed = 0xdecaf);

  MemIndex(const MemIndex&) = delete;
  MemIndex& operator=(const MemIndex&) = delete;

  /// The item an Insert superseded: the prior (key, version) entry, when one
  /// existed and was not purged — the record a re-PUT turns into garbage.
  struct Replaced {
    bool found = false;
    uint64_t address = 0;
    uint32_t value_size = 0;
  };

  /// Inserts or updates the item for (key, version). Returns the entry. When
  /// `replaced` is set it receives the item this call superseded, found by
  /// the same seek that places the entry.
  MemEntry* Insert(const Slice& key, uint64_t version, uint64_t address,
                   uint32_t value_size, bool dedup,
                   Replaced* replaced = nullptr);

  /// Exact lookup; returns nullptr if absent or purged.
  MemEntry* FindExact(const Slice& key, uint64_t version) const;

  /// Newest non-purged version of `key`, or nullptr.
  MemEntry* FindLatest(const Slice& key) const;

  /// Newest entry with version strictly below `version` whose value field
  /// exists (not deduplicated). This is the GET traceback of Figure 2.
  /// Returns nullptr when no value-bearing older version exists, or when
  /// that entry is purged: its bytes are gone, and an older version's
  /// bytes are not the pair's value.
  MemEntry* TracebackValue(const Slice& key, uint64_t version) const;

  /// Newest entry of `key` that is neither purged nor deleted, or nullptr.
  /// Stops at the first such entry, so older versions cost nothing.
  MemEntry* FindLatestLive(const Slice& key) const;

  /// Non-purged entry of `key` with the smallest version strictly above
  /// `version` (the next newer version), or nullptr. One O(log n) search,
  /// so walking upwards from a version costs only the versions walked.
  MemEntry* FindNextNewer(const Slice& key, uint64_t version) const;

  /// Marks an entry physically removed from the index.
  void Purge(MemEntry* entry);

  /// Number of visible (non-purged) entries.
  size_t live_count() const {
    return live_count_.load(std::memory_order_relaxed);
  }
  /// Number of entries ever inserted (including purged).
  size_t total_count() const { return list_->size(); }
  size_t ApproximateMemoryUsage() const { return arena_->MemoryUsage(); }

  /// Ordered iteration over non-purged entries (checkpointing, scans).
  /// Freshly constructed iterators are positioned at the first entry.
  class Iterator {
   public:
    explicit Iterator(const MemIndex* index);

    bool Valid() const;
    /// Entry under the cursor. Never a purged entry.
    MemEntry* entry() const;
    void Next();
    void SeekToFirst();
    /// First entry with user key >= `key` (any version).
    void Seek(const Slice& key);

   private:
    void SkipPurged();

    struct Impl;
    std::shared_ptr<Impl> impl_;
  };

  Iterator NewIterator() const { return Iterator(this); }

  /// Copies all live entries into `fresh` (which must be empty), dropping
  /// purged ghosts. Used to re-densify the index after heavy GC.
  void CompactInto(MemIndex* fresh) const;

 private:
  struct EntryComparator {
    int operator()(const MemEntry* a, const MemEntry* b) const;
  };
  using List = SkipList<MemEntry*, EntryComparator>;

  friend class Iterator;

  std::unique_ptr<Arena> arena_;
  std::unique_ptr<List> list_;
  std::atomic<size_t> live_count_{0};
};

}  // namespace directload

#endif  // DIRECTLOAD_MEMTABLE_MEM_INDEX_H_
