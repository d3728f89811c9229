#include "lsm/version.h"

#include <algorithm>
#include <cmath>

#include "common/coding.h"

namespace directload::lsm {

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestTemp[] = "MANIFEST.tmp";

/// LevelDB's level count, and the size ratio between adjacent levels.
constexpr int kNumLevels = 7;
constexpr double kLevelSizeMultiplier = 10.0;

// VersionEdit field tags.
enum EditTag : uint32_t {
  kLogNumber = 1,
  kNextFileNumber = 2,
  kLastSequence = 3,
  kDeletedFile = 5,
  kNewFile = 6,
};

Slice UserKeyOfSmallest(const FileMetaData& f) {
  return ExtractUserKey(f.smallest);
}
Slice UserKeyOfLargest(const FileMetaData& f) {
  return ExtractUserKey(f.largest);
}

}  // namespace

// ---------------------------------------------------------------------------
// VersionEdit
// ---------------------------------------------------------------------------

void VersionEdit::EncodeTo(std::string* dst) const {
  if (has_log_number) {
    PutVarint32(dst, kLogNumber);
    PutVarint64(dst, log_number);
  }
  if (has_next_file_number) {
    PutVarint32(dst, kNextFileNumber);
    PutVarint64(dst, next_file_number);
  }
  if (has_last_sequence) {
    PutVarint32(dst, kLastSequence);
    PutVarint64(dst, last_sequence);
  }
  for (const auto& [level, number] : deleted_files) {
    PutVarint32(dst, kDeletedFile);
    PutVarint32(dst, static_cast<uint32_t>(level));
    PutVarint64(dst, number);
  }
  for (const auto& [level, meta] : new_files) {
    PutVarint32(dst, kNewFile);
    PutVarint32(dst, static_cast<uint32_t>(level));
    PutVarint64(dst, meta.number);
    PutVarint64(dst, meta.file_size);
    PutLengthPrefixedSlice(dst, meta.smallest);
    PutLengthPrefixedSlice(dst, meta.largest);
  }
}

Status VersionEdit::DecodeFrom(const Slice& src) {
  *this = VersionEdit();
  Slice in = src;
  while (!in.empty()) {
    uint32_t tag = 0;
    if (!GetVarint32(&in, &tag)) return Status::Corruption("edit tag");
    switch (tag) {
      case kLogNumber:
        if (!GetVarint64(&in, &log_number)) return Status::Corruption("log#");
        has_log_number = true;
        break;
      case kNextFileNumber:
        if (!GetVarint64(&in, &next_file_number)) {
          return Status::Corruption("next-file#");
        }
        has_next_file_number = true;
        break;
      case kLastSequence:
        if (!GetVarint64(&in, &last_sequence)) return Status::Corruption("seq");
        has_last_sequence = true;
        break;
      case kDeletedFile: {
        uint32_t level = 0;
        uint64_t number = 0;
        if (!GetVarint32(&in, &level) || !GetVarint64(&in, &number)) {
          return Status::Corruption("deleted file");
        }
        deleted_files.emplace_back(static_cast<int>(level), number);
        break;
      }
      case kNewFile: {
        uint32_t level = 0;
        FileMetaData meta;
        Slice smallest, largest;
        if (!GetVarint32(&in, &level) || !GetVarint64(&in, &meta.number) ||
            !GetVarint64(&in, &meta.file_size) ||
            !GetLengthPrefixedSlice(&in, &smallest) ||
            !GetLengthPrefixedSlice(&in, &largest)) {
          return Status::Corruption("new file");
        }
        meta.smallest = smallest.ToString();
        meta.largest = largest.ToString();
        new_files.emplace_back(static_cast<int>(level), std::move(meta));
        break;
      }
      default:
        return Status::Corruption("unknown edit tag");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// VersionSet
// ---------------------------------------------------------------------------

VersionSet::VersionSet(ssd::SsdEnv* env, const LsmOptions& options)
    : env_(env),
      options_(options),
      levels_(kNumLevels),
      compact_pointers_(kNumLevels) {}

void VersionSet::Apply(const VersionEdit& edit) {
  if (edit.has_log_number) log_number_ = edit.log_number;
  if (edit.has_next_file_number) next_file_number_ = edit.next_file_number;
  if (edit.has_last_sequence) last_sequence_ = edit.last_sequence;
  for (const auto& [level, number] : edit.deleted_files) {
    auto& files = levels_[level];
    files.erase(std::remove_if(files.begin(), files.end(),
                               [number = number](const FileMetaData& f) {
                                 return f.number == number;
                               }),
                files.end());
  }
  for (const auto& [level, meta] : edit.new_files) {
    levels_[level].push_back(meta);
  }
  // Keep deeper levels sorted by smallest key; keep L0 sorted by file
  // number (newest last) so Level0FilesNewestFirst can reverse it.
  std::sort(levels_[0].begin(), levels_[0].end(),
            [](const FileMetaData& a, const FileMetaData& b) {
              return a.number < b.number;
            });
  for (int level = 1; level < num_levels(); ++level) {
    std::sort(levels_[level].begin(), levels_[level].end(),
              [](const FileMetaData& a, const FileMetaData& b) {
                return Slice(a.smallest).compare(Slice(b.smallest)) < 0;
              });
  }
}

Status VersionSet::WriteSnapshot(LogWriter* writer) const {
  VersionEdit snapshot;
  snapshot.has_log_number = true;
  snapshot.log_number = log_number_;
  snapshot.has_next_file_number = true;
  snapshot.next_file_number = next_file_number_;
  snapshot.has_last_sequence = true;
  snapshot.last_sequence = last_sequence_;
  for (int level = 0; level < num_levels(); ++level) {
    for (const FileMetaData& meta : levels_[level]) {
      snapshot.new_files.emplace_back(level, meta);
    }
  }
  std::string record;
  snapshot.EncodeTo(&record);
  return writer->AddRecord(record);
}

Status VersionSet::Recover() {
  if (env_->FileExists(kManifestName)) {
    Result<std::unique_ptr<ssd::RandomAccessFile>> file =
        env_->NewRandomAccessFile(kManifestName);
    if (!file.ok()) return file.status();
    LogReader reader(file->get());
    std::string record;
    while (reader.ReadRecord(&record)) {
      VersionEdit edit;
      Status s = edit.DecodeFrom(record);
      if (!s.ok()) return s;
      Apply(edit);
    }
    if (!reader.status().ok()) return reader.status();
  }

  // Start a fresh MANIFEST holding a snapshot of the recovered state (a new
  // manifest per open, as LevelDB does).
  if (env_->FileExists(kManifestTemp)) {
    Status s = env_->DeleteFile(kManifestTemp);
    if (!s.ok()) return s;
  }
  Result<std::unique_ptr<ssd::WritableFile>> manifest =
      env_->NewWritableFile(kManifestTemp);
  if (!manifest.ok()) return manifest.status();
  manifest_file_ = std::move(manifest).value();
  manifest_log_ = std::make_unique<LogWriter>(manifest_file_.get());
  Status s = WriteSnapshot(manifest_log_.get());
  if (!s.ok()) return s;
  s = manifest_file_->Sync();
  if (!s.ok()) return s;
  // Renaming over the old manifest is the atomic install point. A writer
  // must not stay open across the rename, so the env requires closing
  // first; we keep appending to the same file object afterwards, which the
  // env supports because the meta handle survives the rename.
  return env_->RenameFile(kManifestTemp, kManifestName);
}

Status VersionSet::LogAndApply(VersionEdit* edit) {
  edit->has_next_file_number = true;
  edit->next_file_number = next_file_number_;
  edit->has_last_sequence = true;
  edit->last_sequence = last_sequence_;
  std::string record;
  edit->EncodeTo(&record);
  Status s = manifest_log_->AddRecord(record);
  if (!s.ok()) return s;
  s = manifest_file_->Sync();
  if (!s.ok()) return s;
  Apply(*edit);
  return Status::OK();
}

uint64_t VersionSet::NumLevelBytes(int level) const {
  uint64_t total = 0;
  for (const FileMetaData& f : levels_[level]) total += f.file_size;
  return total;
}

uint64_t VersionSet::TotalTableBytes() const {
  uint64_t total = 0;
  for (int level = 0; level < num_levels(); ++level) {
    total += NumLevelBytes(level);
  }
  return total;
}

std::vector<FileMetaData> VersionSet::GetOverlappingInputs(
    int level, const Slice& smallest_user, const Slice& largest_user) const {
  std::vector<FileMetaData> inputs;
  for (const FileMetaData& f : levels_[level]) {
    if (UserKeyOfLargest(f).compare(smallest_user) < 0) continue;
    if (UserKeyOfSmallest(f).compare(largest_user) > 0) continue;
    inputs.push_back(f);
  }
  return inputs;
}

std::vector<FileMetaData> VersionSet::Level0FilesNewestFirst() const {
  std::vector<FileMetaData> files = levels_[0];
  std::sort(files.begin(), files.end(),
            [](const FileMetaData& a, const FileMetaData& b) {
              return a.number > b.number;
            });
  return files;
}

const FileMetaData* VersionSet::FindFileInLevel(int level,
                                                const Slice& user_key) const {
  const auto& files = levels_[level];
  // Binary search: first file whose largest user key is >= user_key.
  size_t lo = 0, hi = files.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (UserKeyOfLargest(files[mid]).compare(user_key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == files.size()) return nullptr;
  if (UserKeyOfSmallest(files[lo]).compare(user_key) > 0) return nullptr;
  return &files[lo];
}

bool VersionSet::IsBaseLevelForKey(int level, const Slice& user_key) const {
  for (int l = level + 1; l < num_levels(); ++l) {
    if (l == 0) continue;
    if (FindFileInLevel(l, user_key) != nullptr) return false;
  }
  return true;
}

uint64_t VersionSet::MaxBytesForLevel(int level) const {
  double bytes = static_cast<double>(options_.max_bytes_for_level_base);
  for (int l = 1; l < level; ++l) bytes *= kLevelSizeMultiplier;
  return static_cast<uint64_t>(bytes);
}

double VersionSet::CompactionScore(int level) const {
  if (level == 0) {
    return static_cast<double>(NumLevelFiles(0)) /
           static_cast<double>(options_.l0_compaction_trigger);
  }
  return static_cast<double>(NumLevelBytes(level)) /
         static_cast<double>(MaxBytesForLevel(level));
}

int VersionSet::PickCompactionLevel() const {
  int best_level = -1;
  double best_score = 1.0;
  for (int level = 0; level < num_levels() - 1; ++level) {
    const double score = CompactionScore(level);
    if (score >= best_score) {
      best_score = score;
      best_level = level;
    }
  }
  return best_level;
}

}  // namespace directload::lsm
