#include "lsm/db.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/coding.h"
#include "common/logging.h"

namespace directload::lsm {

namespace {
constexpr char kWalPrefix[] = "wal_";
constexpr int kMaxCompactionsPerWrite = 64;  // Runaway guard.
}  // namespace

LsmDb::LsmDb(ssd::SsdEnv* env, const LsmOptions& options)
    : env_(env),
      options_(options),
      block_cache_(std::make_unique<BlockCache>(options.block_cache_bytes)),
      table_cache_(std::make_unique<TableCache>(env, block_cache_.get())),
      versions_(std::make_unique<VersionSet>(env, options)),
      mem_(std::make_unique<LsmMemTable>()) {}

LsmDb::~LsmDb() {
  if (wal_file_ != nullptr) {
    DL_LOG_IF_ERROR("lsm wal close on shutdown", wal_file_->Close());
  }
}

std::string LsmDb::WalFileName(uint64_t number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08llu.log", kWalPrefix,
                static_cast<unsigned long long>(number));
  return buf;
}

Result<std::unique_ptr<LsmDb>> LsmDb::Open(ssd::SsdEnv* env,
                                           const LsmOptions& options) {
  std::unique_ptr<LsmDb> db(new LsmDb(env, options));
  Status s = db->Recover();
  if (!s.ok()) return s;
  return db;
}

Status LsmDb::Recover() {
  Status s = versions_->Recover();
  if (!s.ok()) return s;

  // Replay WALs at or above the manifest's log number, oldest first.
  std::vector<std::pair<uint64_t, std::string>> wals;
  for (const std::string& name : env_->ListFiles()) {
    if (name.rfind(kWalPrefix, 0) != 0) continue;
    const uint64_t number =
        std::strtoull(name.c_str() + sizeof(kWalPrefix) - 1, nullptr, 10);
    wals.emplace_back(number, name);
  }
  std::sort(wals.begin(), wals.end());
  for (const auto& [number, name] : wals) {
    if (number < versions_->log_number()) continue;
    s = ReplayWal(name);
    if (!s.ok()) return s;
  }

  if (!mem_->empty()) {
    // Persist the recovered memtable as an L0 table (rolls a fresh WAL).
    s = FlushMemTable();
    if (!s.ok()) return s;
  } else {
    s = NewWal();
    if (!s.ok()) return s;
    VersionEdit edit;
    edit.has_log_number = true;
    edit.log_number = wal_number_;
    s = versions_->LogAndApply(&edit);
    if (!s.ok()) return s;
  }

  // Obsolete WALs (below the new log number) can go.
  for (const auto& [number, name] : wals) {
    if (number < wal_number_ && env_->FileExists(name)) {
      s = env_->DeleteFile(name);
      if (!s.ok()) return s;
    }
  }
  return MaybeScheduleCompaction();
}

Status LsmDb::ReplayWal(const std::string& name) {
  Result<std::unique_ptr<ssd::RandomAccessFile>> file =
      env_->NewRandomAccessFile(name);
  if (!file.ok()) return file.status();
  LogReader reader(file->get());
  std::string record;
  SequenceNumber max_seq = versions_->last_sequence();
  while (reader.ReadRecord(&record)) {
    Slice in(record);
    if (in.size() < 9) return Status::Corruption("short WAL record");
    const SequenceNumber seq = DecodeFixed64(in.data());
    in.remove_prefix(8);
    const auto type = static_cast<ValueType>(in[0]);
    in.remove_prefix(1);
    Slice key, value;
    if (!GetLengthPrefixedSlice(&in, &key) ||
        !GetLengthPrefixedSlice(&in, &value)) {
      return Status::Corruption("bad WAL record");
    }
    mem_->Add(seq, type, key, value);
    max_seq = std::max(max_seq, seq);
  }
  if (!reader.status().ok()) return reader.status();
  versions_->SetLastSequence(max_seq);
  return Status::OK();
}

Status LsmDb::NewWal() {
  wal_number_ = versions_->NewFileNumber();
  Result<std::unique_ptr<ssd::WritableFile>> file =
      env_->NewWritableFile(WalFileName(wal_number_));
  if (!file.ok()) return file.status();
  wal_file_ = std::move(file).value();
  wal_ = std::make_unique<LogWriter>(wal_file_.get());
  return Status::OK();
}

Status LsmDb::Put(const Slice& key, const Slice& value) {
  ++stats_.puts;
  stats_.user_bytes_ingested += key.size() + value.size();
  return WriteInternal(key, value, kTypeValue);
}

Status LsmDb::Delete(const Slice& key) {
  ++stats_.dels;
  return WriteInternal(key, Slice(), kTypeDeletion);
}

Status LsmDb::WriteInternal(const Slice& key, const Slice& value,
                            ValueType type) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  // Stall accounting: L0 backlog forces the write to wait on compaction.
  if (versions_->NumLevelFiles(0) >= options_.l0_stall_trigger) {
    ++stats_.write_stall_events;
    Status s = MaybeScheduleCompaction();
    if (!s.ok()) return s;
  }

  const SequenceNumber seq = versions_->last_sequence() + 1;
  std::string record;
  PutFixed64(&record, seq);
  record.push_back(static_cast<char>(type));
  PutLengthPrefixedSlice(&record, key);
  PutLengthPrefixedSlice(&record, value);
  // The WAL is not synced per write: LevelDB's default (sync=false), which
  // the paper's baseline used.
  Status s = wal_->AddRecord(record);
  if (!s.ok()) return s;
  mem_->Add(seq, type, key, value);
  versions_->SetLastSequence(seq);

  if (mem_->ApproximateMemoryUsage() >= options_.write_buffer_bytes) {
    s = FlushMemTable();
    if (!s.ok()) return s;
    s = MaybeScheduleCompaction();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status LsmDb::ForceFlush() {
  Status s = FlushMemTable();
  if (!s.ok()) return s;
  return MaybeScheduleCompaction();
}

Status LsmDb::FlushMemTable() {
  if (mem_->empty()) return Status::OK();

  // Roll the WAL: the new table will carry everything the old log held.
  std::unique_ptr<ssd::WritableFile> old_wal_file = std::move(wal_file_);
  const uint64_t old_wal_number = wal_number_;
  Status s = NewWal();
  if (!s.ok()) return s;

  const uint64_t file_number = versions_->NewFileNumber();
  const std::string name = TableCache::TableFileName(file_number);
  Result<std::unique_ptr<ssd::WritableFile>> file = env_->NewWritableFile(name);
  if (!file.ok()) return file.status();
  TableBuilder builder(options_, file->get());
  std::unique_ptr<Iterator> it = mem_->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    s = builder.Add(it->key(), it->value());
    if (!s.ok()) return s;
  }
  s = builder.Finish();
  if (!s.ok()) return s;
  s = (*file)->Close();
  if (!s.ok()) return s;

  FileMetaData meta;
  meta.number = file_number;
  meta.file_size = (*file)->Size();
  meta.smallest = builder.smallest_key();
  meta.largest = builder.largest_key();

  VersionEdit edit;
  edit.has_log_number = true;
  edit.log_number = wal_number_;
  edit.new_files.emplace_back(0, std::move(meta));
  s = versions_->LogAndApply(&edit);
  if (!s.ok()) return s;

  if (old_wal_file != nullptr) {
    s = old_wal_file->Close();
    if (!s.ok()) return s;
    s = env_->DeleteFile(WalFileName(old_wal_number));
    if (!s.ok()) return s;
  }
  mem_ = std::make_unique<LsmMemTable>();
  ++stats_.memtable_flushes;
  return Status::OK();
}

Status LsmDb::MaybeScheduleCompaction() {
  for (int i = 0; i < kMaxCompactionsPerWrite; ++i) {
    const int level = versions_->PickCompactionLevel();
    if (level < 0) return Status::OK();
    Status s = DoCompaction(level);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status LsmDb::CompactUntilQuiescent() {
  while (true) {
    const int level = versions_->PickCompactionLevel();
    if (level < 0) return Status::OK();
    Status s = DoCompaction(level);
    if (!s.ok()) return s;
  }
}

Status LsmDb::DoCompaction(int level) {
  const int output_level = level + 1;

  // Select inputs at `level`.
  std::vector<FileMetaData> inputs0;
  if (level == 0) {
    inputs0 = versions_->files(0);
  } else {
    const auto& files = versions_->files(level);
    if (files.empty()) return Status::OK();
    const std::string pointer = versions_->compact_pointer(level);
    const FileMetaData* chosen = nullptr;
    for (const FileMetaData& f : files) {
      if (pointer.empty() || Slice(f.largest).compare(pointer) > 0) {
        chosen = &f;
        break;
      }
    }
    if (chosen == nullptr) chosen = &files[0];  // Wrap around.
    inputs0.push_back(*chosen);
  }
  if (inputs0.empty()) return Status::OK();

  // Key range of the inputs, then the overlapping files one level down.
  Slice smallest_user = ExtractUserKey(inputs0[0].smallest);
  Slice largest_user = ExtractUserKey(inputs0[0].largest);
  for (const FileMetaData& f : inputs0) {
    if (ExtractUserKey(f.smallest).compare(smallest_user) < 0) {
      smallest_user = ExtractUserKey(f.smallest);
    }
    if (ExtractUserKey(f.largest).compare(largest_user) > 0) {
      largest_user = ExtractUserKey(f.largest);
    }
  }
  std::vector<FileMetaData> inputs1 =
      versions_->GetOverlappingInputs(output_level, smallest_user,
                                      largest_user);

  // Trivial move: a single input with nothing to merge against slides down
  // a level without any I/O (LevelDB's IsTrivialMove). Keeping this matters
  // for a fair write-amplification baseline.
  if (inputs0.size() == 1 && inputs1.empty()) {
    VersionEdit move;
    move.has_log_number = true;
    move.log_number = wal_number_;
    move.deleted_files.emplace_back(level, inputs0[0].number);
    move.new_files.emplace_back(output_level, inputs0[0]);
    if (level > 0) {
      versions_->set_compact_pointer(level, inputs0[0].largest);
    }
    return versions_->LogAndApply(&move);
  }

  // Merge all inputs, newest-first tie-breaking by the internal comparator.
  std::vector<std::unique_ptr<Iterator>> children;
  uint64_t bytes_read = 0;
  for (const std::vector<FileMetaData>* inputs : {&inputs0, &inputs1}) {
    for (const FileMetaData& f : *inputs) {
      Result<std::shared_ptr<TableReader>> table =
          table_cache_->GetTable(f.number, f.file_size);
      if (!table.ok()) return table.status();
      children.push_back((*table)->NewIterator());
      bytes_read += f.file_size;
    }
  }
  std::unique_ptr<Iterator> merged =
      NewMergingIterator(GetInternalKeyComparator(), std::move(children));

  VersionEdit edit;
  edit.has_log_number = true;
  edit.log_number = wal_number_;
  for (const FileMetaData& f : inputs0) {
    edit.deleted_files.emplace_back(level, f.number);
  }
  for (const FileMetaData& f : inputs1) {
    edit.deleted_files.emplace_back(output_level, f.number);
  }

  // Emit the newest entry per user key; drop shadowed duplicates, and drop
  // tombstones once no deeper level can hold the key.
  std::unique_ptr<ssd::WritableFile> out_file;
  std::unique_ptr<TableBuilder> builder;
  uint64_t out_number = 0;
  uint64_t bytes_written = 0;
  std::string last_user_key;
  bool has_last = false;

  auto finish_output = [&]() -> Status {
    if (builder == nullptr) return Status::OK();
    Status s = builder->Finish();
    if (!s.ok()) return s;
    s = out_file->Close();
    if (!s.ok()) return s;
    FileMetaData meta;
    meta.number = out_number;
    meta.file_size = out_file->Size();
    meta.smallest = builder->smallest_key();
    meta.largest = builder->largest_key();
    bytes_written += meta.file_size;
    edit.new_files.emplace_back(output_level, std::move(meta));
    builder.reset();
    out_file.reset();
    return Status::OK();
  };

  Status s;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    const Slice internal_key = merged->key();
    const Slice user_key = ExtractUserKey(internal_key);
    if (has_last && user_key == Slice(last_user_key)) {
      continue;  // Shadowed by a newer entry already emitted/considered.
    }
    last_user_key.assign(user_key.data(), user_key.size());
    has_last = true;
    if (ExtractValueType(internal_key) == kTypeDeletion &&
        versions_->IsBaseLevelForKey(output_level, user_key)) {
      continue;  // The tombstone has nothing left to shadow.
    }
    if (builder == nullptr) {
      out_number = versions_->NewFileNumber();
      Result<std::unique_ptr<ssd::WritableFile>> file =
          env_->NewWritableFile(TableCache::TableFileName(out_number));
      if (!file.ok()) return file.status();
      out_file = std::move(file).value();
      builder = std::make_unique<TableBuilder>(options_, out_file.get());
    }
    s = builder->Add(internal_key, merged->value());
    if (!s.ok()) return s;
    if (builder->FileSize() >= options_.target_file_bytes) {
      s = finish_output();
      if (!s.ok()) return s;
    }
  }
  if (!merged->status().ok()) return merged->status();
  s = finish_output();
  if (!s.ok()) return s;

  // Advance the round-robin cursor for this level.
  if (level > 0) {
    versions_->set_compact_pointer(level, inputs0.back().largest);
  }

  s = versions_->LogAndApply(&edit);
  if (!s.ok()) return s;

  // Remove the input files from the device and the caches.
  for (const std::vector<FileMetaData>* inputs : {&inputs0, &inputs1}) {
    for (const FileMetaData& f : *inputs) {
      table_cache_->Evict(f.number);
      s = env_->DeleteFile(TableCache::TableFileName(f.number));
      if (!s.ok()) return s;
    }
  }
  ++stats_.compactions;
  stats_.compaction_bytes_read += bytes_read;
  stats_.compaction_bytes_written += bytes_written;
  return Status::OK();
}

Result<std::string> LsmDb::Get(const Slice& key) {
  ++stats_.gets;
  std::string value;
  Status s;
  if (mem_->Get(key, versions_->last_sequence(), &value, &s)) {
    if (!s.ok()) return s;  // Tombstone.
    return value;
  }
  bool found = false;
  s = SearchTables(key, &value, &found);
  if (!s.ok()) return s;
  if (!found) return Status::NotFound("no such key");
  return value;
}

Status LsmDb::SearchTables(const Slice& user_key, std::string* value,
                           bool* found) {
  *found = false;
  const std::string probe =
      MakeInternalKey(user_key, versions_->last_sequence(), kTypeValue);

  auto check_file = [&](const FileMetaData& f, bool* done) -> Status {
    Result<std::shared_ptr<TableReader>> table =
        table_cache_->GetTable(f.number, f.file_size);
    if (!table.ok()) return table.status();
    bool table_found = false, is_deletion = false, filter_skipped = false;
    Status s = (*table)->InternalGet(probe, value, &table_found, &is_deletion,
                                     &filter_skipped);
    if (!s.ok()) return s;
    if (filter_skipped) {
      ++stats_.bloom_useful;
    } else {
      ++stats_.seeks;
    }
    if (table_found) {
      *done = true;
      if (is_deletion) return Status::NotFound("tombstone");
      *found = true;
    }
    return Status::OK();
  };

  // L0: overlapping files, newest first.
  for (const FileMetaData& f : versions_->Level0FilesNewestFirst()) {
    if (user_key.compare(ExtractUserKey(f.smallest)) < 0 ||
        user_key.compare(ExtractUserKey(f.largest)) > 0) {
      continue;
    }
    bool done = false;
    Status s = check_file(f, &done);
    if (!s.ok()) return s.IsNotFound() ? Status::OK() : s;
    if (done) return Status::OK();
  }
  // Deeper levels: at most one candidate per level.
  for (int level = 1; level < versions_->num_levels(); ++level) {
    const FileMetaData* f = versions_->FindFileInLevel(level, user_key);
    if (f == nullptr) continue;
    bool done = false;
    Status s = check_file(*f, &done);
    if (!s.ok()) return s.IsNotFound() ? Status::OK() : s;
    if (done) return Status::OK();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Whole-DB iterator over live user keys
// ---------------------------------------------------------------------------

class LsmDb::DbIterator final : public Iterator {
 public:
  explicit DbIterator(std::unique_ptr<Iterator> internal)
      : internal_(std::move(internal)) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    internal_->SeekToFirst();
    FindNextLiveEntry();
  }

  void Seek(const Slice& user_target) override {
    internal_->Seek(MakeInternalKey(user_target, kMaxSequenceNumber,
                                    kTypeValue));
    FindNextLiveEntry();
  }

  void Next() override {
    SkipCurrentUserKey();
    FindNextLiveEntry();
  }

  Slice key() const override { return Slice(user_key_); }
  Slice value() const override { return Slice(value_); }
  Status status() const override { return internal_->status(); }

 private:
  /// Positions on the newest live entry at or after the cursor; skips
  /// tombstoned keys entirely.
  void FindNextLiveEntry() {
    valid_ = false;
    while (internal_->Valid()) {
      const Slice internal_key = internal_->key();
      const Slice user_key = ExtractUserKey(internal_key);
      user_key_.assign(user_key.data(), user_key.size());
      if (ExtractValueType(internal_key) == kTypeDeletion) {
        SkipCurrentUserKey();
        continue;
      }
      value_.assign(internal_->value().data(), internal_->value().size());
      valid_ = true;
      return;
    }
  }

  void SkipCurrentUserKey() {
    while (internal_->Valid() &&
           ExtractUserKey(internal_->key()) == Slice(user_key_)) {
      internal_->Next();
    }
  }

  std::unique_ptr<Iterator> internal_;
  bool valid_ = false;
  std::string user_key_;
  std::string value_;
};

std::unique_ptr<Iterator> LsmDb::NewIterator() {
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(mem_->NewIterator());
  for (int level = 0; level < versions_->num_levels(); ++level) {
    for (const FileMetaData& f : versions_->files(level)) {
      Result<std::shared_ptr<TableReader>> table =
          table_cache_->GetTable(f.number, f.file_size);
      if (!table.ok()) return NewErrorIterator(table.status());
      children.push_back((*table)->NewIterator());
    }
  }
  return std::make_unique<DbIterator>(
      NewMergingIterator(GetInternalKeyComparator(), std::move(children)));
}

}  // namespace directload::lsm
