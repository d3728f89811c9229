#include "memtable/mem_index.h"

#include <cstring>
#include <new>

namespace directload {

namespace {

/// Fills a stack probe entry for seeks in place (MemEntry holds atomics and
/// is therefore not copyable). The probe never outlives the call.
void FillProbe(MemEntry* probe, const Slice& key, uint64_t version) {
  probe->key_data = key.data();
  probe->key_size = static_cast<uint32_t>(key.size());
  probe->version = version;
}

}  // namespace

int MemIndex::EntryComparator::operator()(const MemEntry* a,
                                          const MemEntry* b) const {
  const int r = a->user_key().compare(b->user_key());
  if (r != 0) return r;
  // Versions descend within a key: the newest version is encountered first.
  if (a->version > b->version) return -1;
  if (a->version < b->version) return 1;
  return 0;
}

MemIndex::MemIndex(uint64_t seed)
    : arena_(std::make_unique<Arena>()),
      list_(std::make_unique<List>(EntryComparator(), arena_.get(), seed)) {}

MemEntry* MemIndex::Insert(const Slice& key, uint64_t version,
                           uint64_t address, uint32_t value_size, bool dedup,
                           Replaced* replaced) {
  // Re-transmitted pairs update the existing item in place (including
  // reviving a purged ghost) rather than duplicating it.
  if (replaced != nullptr) *replaced = Replaced{};
  MemEntry probe{};
  FillProbe(&probe, key, version);
  List::Iterator it(list_.get());
  MemEntry* probe_ptr = &probe;
  it.Seek(probe_ptr);
  if (it.Valid() && EntryComparator()(it.key(), probe_ptr) == 0) {
    MemEntry* existing = it.key();
    if (existing->purged.load(std::memory_order_relaxed)) {
      existing->purged.store(false, std::memory_order_relaxed);
      live_count_.fetch_add(1, std::memory_order_relaxed);
    } else if (replaced != nullptr) {
      replaced->found = true;
      replaced->address = existing->address.load(std::memory_order_relaxed);
      replaced->value_size =
          existing->value_size.load(std::memory_order_relaxed);
    }
    existing->address.store(address, std::memory_order_relaxed);
    existing->value_size.store(value_size, std::memory_order_relaxed);
    existing->dedup.store(dedup, std::memory_order_relaxed);
    existing->deleted.store(false, std::memory_order_release);
    return existing;
  }

  char* key_copy = arena_->Allocate(key.size());
  std::memcpy(key_copy, key.data(), key.size());
  auto* entry =
      new (arena_->AllocateAligned(sizeof(MemEntry))) MemEntry{};
  entry->key_data = key_copy;
  entry->key_size = static_cast<uint32_t>(key.size());
  entry->version = version;
  entry->address.store(address, std::memory_order_relaxed);
  entry->value_size.store(value_size, std::memory_order_relaxed);
  entry->dedup.store(dedup, std::memory_order_relaxed);
  entry->deleted.store(false, std::memory_order_relaxed);
  entry->purged.store(false, std::memory_order_relaxed);
  // The skip-list insert publishes the fully built entry with a release
  // store, so lock-free readers always observe initialized fields.
  list_->Insert(entry);
  live_count_.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

MemEntry* MemIndex::FindExact(const Slice& key, uint64_t version) const {
  MemEntry probe{};
  FillProbe(&probe, key, version);
  MemEntry* probe_ptr = &probe;
  List::Iterator it(list_.get());
  it.Seek(probe_ptr);
  if (!it.Valid()) return nullptr;
  MemEntry* found = it.key();
  if (EntryComparator()(found, probe_ptr) != 0 ||
      found->purged.load(std::memory_order_acquire)) {
    return nullptr;
  }
  return found;
}

MemEntry* MemIndex::FindLatest(const Slice& key) const {
  MemEntry probe{};
  FillProbe(&probe, key, UINT64_MAX);
  MemEntry* probe_ptr = &probe;
  List::Iterator it(list_.get());
  for (it.Seek(probe_ptr); it.Valid(); it.Next()) {
    MemEntry* entry = it.key();
    if (entry->user_key() != key) return nullptr;
    if (!entry->purged.load(std::memory_order_acquire)) return entry;
  }
  return nullptr;
}

MemEntry* MemIndex::TracebackValue(const Slice& key, uint64_t version) const {
  if (version == 0) return nullptr;
  MemEntry probe{};
  FillProbe(&probe, key, version - 1);
  MemEntry* probe_ptr = &probe;
  List::Iterator it(list_.get());
  for (it.Seek(probe_ptr); it.Valid(); it.Next()) {
    MemEntry* entry = it.key();
    if (entry->user_key() != key) return nullptr;
    if (entry->dedup.load(std::memory_order_acquire)) continue;
    return entry->purged.load(std::memory_order_acquire) ? nullptr : entry;
  }
  return nullptr;
}

MemEntry* MemIndex::FindLatestLive(const Slice& key,
                                   const MemEntry** newest) const {
  if (newest != nullptr) *newest = nullptr;
  MemEntry probe{};
  FillProbe(&probe, key, UINT64_MAX);
  MemEntry* probe_ptr = &probe;
  List::Iterator it(list_.get());
  for (it.Seek(probe_ptr); it.Valid(); it.Next()) {
    MemEntry* entry = it.key();
    if (entry->user_key() != key) return nullptr;
    if (entry->purged.load(std::memory_order_acquire)) continue;
    if (newest != nullptr && *newest == nullptr) *newest = entry;
    if (!entry->deleted.load(std::memory_order_acquire)) return entry;
  }
  return nullptr;
}

MemEntry* MemIndex::FindNextNewer(const Slice& key, uint64_t version) const {
  MemEntry probe{};
  FillProbe(&probe, key, version);
  MemEntry* probe_ptr = &probe;
  List::Iterator it(list_.get());
  // Versions descend within a key, so the newer versions sit just before
  // the probe: the nearest is the last entry that orders before it.
  for (it.SeekBefore(probe_ptr); it.Valid(); it.Prev()) {
    MemEntry* entry = it.key();
    if (entry->user_key() != key) return nullptr;
    if (!entry->purged.load(std::memory_order_acquire)) return entry;
  }
  return nullptr;
}

void MemIndex::Purge(MemEntry* entry) {
  if (!entry->purged.exchange(true, std::memory_order_acq_rel)) {
    live_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void MemIndex::CompactInto(MemIndex* fresh) const {
  for (Iterator it = NewIterator(); it.Valid(); it.Next()) {
    const MemEntry* e = it.entry();
    MemEntry* copy =
        fresh->Insert(e->user_key(), e->version,
                      e->address.load(std::memory_order_relaxed),
                      e->value_size.load(std::memory_order_relaxed),
                      e->dedup.load(std::memory_order_relaxed));
    copy->deleted.store(e->deleted.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  }
}

// --------------------------------------------------------------------------
// Iterator
// --------------------------------------------------------------------------

struct MemIndex::Iterator::Impl {
  explicit Impl(const List* list) : it(list) {}
  List::Iterator it;
};

MemIndex::Iterator::Iterator(const MemIndex* index)
    : impl_(std::make_shared<Impl>(index->list_.get())) {
  SeekToFirst();
}

bool MemIndex::Iterator::Valid() const { return impl_->it.Valid(); }

MemEntry* MemIndex::Iterator::entry() const { return impl_->it.key(); }

void MemIndex::Iterator::Next() {
  impl_->it.Next();
  SkipPurged();
}

void MemIndex::Iterator::SeekToFirst() {
  impl_->it.SeekToFirst();
  SkipPurged();
}

void MemIndex::Iterator::Seek(const Slice& key) {
  MemEntry probe{};
  FillProbe(&probe, key, UINT64_MAX);
  MemEntry* probe_ptr = &probe;
  impl_->it.Seek(probe_ptr);
  SkipPurged();
}

void MemIndex::Iterator::SkipPurged() {
  while (impl_->it.Valid() &&
         impl_->it.key()->purged.load(std::memory_order_acquire)) {
    impl_->it.Next();
  }
}

}  // namespace directload
