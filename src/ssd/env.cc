#include "ssd/env.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/thread_annotations.h"
#include "ssd/ftl.h"
#include "ssd/native.h"

namespace directload::ssd {

std::string_view InterfaceModeName(InterfaceMode mode) {
  switch (mode) {
    case InterfaceMode::kPageMappedFtl:
      return "page-mapped-ftl";
    case InterfaceMode::kNativeBlock:
      return "native-block";
  }
  return "unknown";
}

namespace {

// Device-layer failpoints (docs/fault_injection.md lists the full registry).
// The append and read-corrupt points are payload-aware: `short` tears an
// append after a prefix, `corrupt` flips a bit in the in-flight page image —
// the failpoint-driven successors to the targeted CorruptFileByteForTesting
// hook.
DIRECTLOAD_FAILPOINT_DEFINE(fp_env_open_writable, "ssd_env_open_writable");
DIRECTLOAD_FAILPOINT_DEFINE(fp_env_open_reader, "ssd_env_open_reader");
DIRECTLOAD_FAILPOINT_DEFINE(fp_env_delete, "ssd_env_delete");
DIRECTLOAD_FAILPOINT_DEFINE(fp_env_rename, "ssd_env_rename");
DIRECTLOAD_FAILPOINT_DEFINE(fp_file_append, "ssd_file_append");
DIRECTLOAD_FAILPOINT_DEFINE(fp_file_sync, "ssd_file_sync");
DIRECTLOAD_FAILPOINT_DEFINE(fp_file_close, "ssd_file_close");
DIRECTLOAD_FAILPOINT_DEFINE(fp_file_read, "ssd_file_read");
DIRECTLOAD_FAILPOINT_DEFINE(fp_file_read_corrupt, "ssd_file_read_corrupt");

// One file layer serves both interfaces. They differ only in where a page
// goes, so a file is a list of extents — the unit it takes from and returns
// to the device: one logical page per file page on the FTL, one whole erase
// block per pages_per_block file pages on the native interface. The file
// table, the buffered tail, the read loop and the failpoints above the
// extents are shared; the per-mode functions of SsdEnvImpl are all that
// differs.
//
// The env serializes env and file state on one plain ranked mutex — a single
// device command queue. Public methods compose (RenameFile deletes, Close
// writes the tail) and file objects reach into the env for placement and
// accounting through *Locked internals that REQUIRE the lock instead of
// re-acquiring it, so the env participates in the lock-rank checker and the
// clang thread-safety analysis like every other layer.

struct FileMeta {
  std::vector<uint64_t> extents;  // LPAs (FTL) or erase blocks, file order.
  uint64_t size = 0;              // Appended bytes (incl. the buffered tail).
  uint64_t persisted = 0;         // Bytes readable from the device.
  bool has_writer = false;
};

class SsdEnvImpl final : public SsdEnv {
 public:
  SsdEnvImpl(InterfaceMode mode, const Geometry& geometry,
             const LatencyModel& latency, SimClock* clock)
      : mu_(LockRank::kSsdEnv, mode == InterfaceMode::kPageMappedFtl
                                   ? "ssd-env(ftl)"
                                   : "ssd-env(native)"),
        mode_(mode),
        clock_(clock) {
    if (mode == InterfaceMode::kPageMappedFtl) {
      device_ = &ftl_.emplace(geometry, latency, clock).device();
    } else {
      device_ = &native_.emplace(geometry, latency, clock).device();
    }
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& name) override;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& name) override;

  Status DeleteFile(const std::string& name) override {
    DIRECTLOAD_FAILPOINT(fp_env_delete);
    MutexLock lock(&mu_);
    return DeleteFileLocked(name);
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    DIRECTLOAD_FAILPOINT(fp_env_rename);
    MutexLock lock(&mu_);
    auto it = files_.find(from);
    if (it == files_.end()) return Status::NotFound(from);
    if (files_.count(to) != 0) {
      Status s = DeleteFileLocked(to);
      if (!s.ok()) return s;
    }
    files_[to] = it->second;
    files_.erase(from);
    return Status::OK();
  }

  bool FileExists(const std::string& name) const override {
    MutexLock lock(&mu_);
    return files_.count(name) != 0;
  }

  Result<uint64_t> GetFileSize(const std::string& name) const override {
    MutexLock lock(&mu_);
    auto it = files_.find(name);
    if (it == files_.end()) return Status::NotFound(name);
    return it->second->size;
  }

  std::vector<std::string> ListFiles() const override {
    MutexLock lock(&mu_);
    std::vector<std::string> names;
    names.reserve(files_.size());
    for (const auto& [name, meta] : files_) names.push_back(name);
    return names;
  }

  uint64_t TotalFileBytes() const override {
    MutexLock lock(&mu_);
    return allocated_extents_ * ExtentBytes();
  }

  uint64_t CapacityBytes() const override {
    if (mode_ == InterfaceMode::kPageMappedFtl) {
      return ftl_->logical_pages() * static_cast<uint64_t>(geometry().page_size);
    }
    return geometry().physical_bytes();
  }

  const SsdStats& stats() const override { return device_->stats(); }
  const Geometry& geometry() const override { return device_->geometry(); }
  InterfaceMode mode() const override { return mode_; }
  SimClock* clock() override { return clock_; }

  Status CorruptFileByteForTesting(const std::string& name,
                                   uint64_t offset) override {
    MutexLock lock(&mu_);
    auto it = files_.find(name);
    if (it == files_.end()) return Status::NotFound(name);
    if (offset >= it->second->persisted) {
      return Status::InvalidArgument("offset not persisted");
    }
    const uint32_t page_size = geometry().page_size;
    return CorruptPageByteLocked(*it->second, offset / page_size,
                                 static_cast<uint32_t>(offset % page_size));
  }

  void SimulateCrashForTesting() override {
    MutexLock lock(&mu_);
    for (auto& [name, meta] : files_) meta->has_writer = false;
  }

  // --- internals shared with the file objects; all require mu_ held ------

  void AccountAppendLocked(size_t n) REQUIRES(mu_) {
    host_bytes_appended_.fetch_add(n, std::memory_order_relaxed);
  }

  // --- the per-mode functions: everything that differs between modes -----

  /// Programs `data` (at most a page; the device zero-pads it) as page `page`
  /// of the file, taking a fresh extent when the page lies past the file's
  /// last one.
  Status PlacePageLocked(FileMeta* meta, uint64_t page, const Slice& data)
      REQUIRES(mu_) {
    if (mode_ == InterfaceMode::kPageMappedFtl) {
      // One logical page per file page, trimmed LPAs reused first. A page
      // placed before (a synced partial page now completed) is overwritten
      // in place: the FTL redirects it, invalidating the old copy — the sync
      // amplification a conventional filesystem pays.
      if (page == meta->extents.size()) {
        if (free_lpas_.empty()) {
          if (next_lpa_ >= ftl_->logical_pages()) {
            return Status::NoSpace("logical capacity exhausted");
          }
          free_lpas_.push_back(next_lpa_++);
        }
        meta->extents.push_back(free_lpas_.front());
        free_lpas_.pop_front();
        ++allocated_extents_;
      }
      return ftl_->Write(meta->extents[page], data);
    }
    // A fresh erase block every pages_per_block pages; pages append in
    // order and are never programmed twice.
    const uint64_t extent = page / geometry().pages_per_block;
    if (extent == meta->extents.size()) {
      Result<uint32_t> block = native_->AllocateBlock();
      if (!block.ok()) return block.status();
      meta->extents.push_back(*block);
      ++allocated_extents_;
    }
    return native_
        ->AppendPage(static_cast<uint32_t>(meta->extents[extent]), data)
        .status();
  }

  Status ReadPageLocked(const FileMeta& meta, uint64_t page, std::string* out)
      REQUIRES(mu_) {
    if (mode_ == InterfaceMode::kPageMappedFtl) {
      return ftl_->Read(meta.extents[page], out);
    }
    const uint32_t pages_per_block = geometry().pages_per_block;
    return native_->ReadPage(
        static_cast<uint32_t>(meta.extents[page / pages_per_block]),
        static_cast<uint32_t>(page % pages_per_block), out);
  }

  /// FTL: Sync programs the partial tail page. Native: a programmed page is
  /// never rewritten, so the tail stays buffered until Close pads it.
  bool SyncWritesTail() const {
    return mode_ == InterfaceMode::kPageMappedFtl;
  }

  /// The mutex — the device's single command queue. Public so the file
  /// objects (same translation unit) can hold it across their operations.
  mutable Mutex mu_;

 private:
  Status ReleaseExtentLocked(uint64_t extent) REQUIRES(mu_) {
    if (mode_ == InterfaceMode::kPageMappedFtl) {
      // Trimmed pages are reclaimed later by device GC.
      Status s = ftl_->Trim(extent);
      if (s.ok()) free_lpas_.push_back(extent);
      return s;
    }
    // Block-aligned deletion: the block is erased directly; there is nothing
    // for a device GC to migrate (the paper's hardware-level win).
    return native_->ReleaseBlock(static_cast<uint32_t>(extent));
  }

  uint64_t ExtentBytes() const {
    return mode_ == InterfaceMode::kPageMappedFtl ? geometry().page_size
                                                  : geometry().block_size();
  }

  Status CorruptPageByteLocked(const FileMeta& meta, uint64_t page,
                               uint32_t offset) REQUIRES(mu_) {
    if (mode_ == InterfaceMode::kPageMappedFtl) {
      // The FTL hides physical addresses: rewrite the page with one bit
      // flipped (timing side effects are irrelevant for fault tests).
      const uint64_t lpa = meta.extents[page];
      std::string data;
      Status s = ftl_->Read(lpa, &data);
      if (!s.ok()) return s;
      data[offset] = static_cast<char>(data[offset] ^ 0x40);
      return ftl_->Write(lpa, data);
    }
    const uint32_t pages_per_block = geometry().pages_per_block;
    return device_->FlipByteForTesting(
        meta.extents[page / pages_per_block] * pages_per_block +
            page % pages_per_block,
        offset);
  }

  // --- shared ------------------------------------------------------------

  Status DeleteFileLocked(const std::string& name) REQUIRES(mu_) {
    auto it = files_.find(name);
    if (it == files_.end()) return Status::NotFound(name);
    if (it->second->has_writer) {
      return Status::Busy("file has an open writer: " + name);
    }
    for (uint64_t extent : it->second->extents) {
      Status s = ReleaseExtentLocked(extent);
      if (!s.ok()) return s;
      --allocated_extents_;
    }
    files_.erase(it);
    return Status::OK();
  }

  const InterfaceMode mode_;
  SimClock* const clock_;
  std::optional<FtlDevice> ftl_;     // Page-mapped mode only.
  std::optional<NativeSsd> native_;  // Native mode only.
  SsdDevice* device_ = nullptr;      // The flash array under either.
  std::map<std::string, std::shared_ptr<FileMeta>> files_ GUARDED_BY(mu_);
  uint64_t allocated_extents_ GUARDED_BY(mu_) = 0;
  std::deque<uint64_t> free_lpas_ GUARDED_BY(mu_);  // FTL: trimmed LPAs.
  uint64_t next_lpa_ GUARDED_BY(mu_) = 0;           // FTL: first unused LPA.
};

class SsdWritableFile final : public WritableFile {
 public:
  SsdWritableFile(SsdEnvImpl* env, std::shared_ptr<FileMeta> meta)
      : env_(env), meta_(std::move(meta)) {}
  ~SsdWritableFile() override {
    DL_LOG_IF_ERROR("ssd file close in destructor", Close());
  }

  Status Append(const Slice& data) override {
    MutexLock lock(&env_->mu_);
    if (closed_) return Status::InvalidArgument("file is closed");
#if DIRECTLOAD_FAILPOINTS_COMPILED
    if (fp_file_append->armed()) {
      std::string payload(data.data(), data.size());
      uint64_t allowed = payload.size();
      Status injected = fp_file_append->MaybeFailIo(&payload, &allowed);
      if (!injected.ok()) {
        // Torn append: the first `allowed` bytes reach the file, the call
        // fails. A plain injected error leaves the file untouched.
        if (allowed > 0 && allowed < payload.size()) {
          // The injected error is what the caller sees; the partial write
          // only shapes the torn tail it recovers from.
          DL_LOG_IF_ERROR("torn-append partial write",
                          AppendLocked(Slice(payload.data(), allowed)));
        }
        return injected;
      }
      // `corrupt` may have flipped a bit in the payload; apply it whole.
      return AppendLocked(Slice(payload.data(), payload.size()));
    }
#endif
    return AppendLocked(data);
  }

  // Sync stays a failpoint in both modes, so sync failures are injectable
  // even where it writes nothing.
  Status Sync() override {
    DIRECTLOAD_FAILPOINT(fp_file_sync);
    if (!env_->SyncWritesTail()) return Status::OK();
    MutexLock lock(&env_->mu_);
    if (closed_) return Status::InvalidArgument("file is closed");
    return WriteTailLocked();
  }

  Status Close() override {
    MutexLock lock(&env_->mu_);
    if (closed_) return Status::OK();
    // An injected close failure leaves the handle open with its tail
    // unpersisted — the caller sees the error, retrying (or the destructor)
    // finishes the close.
    DIRECTLOAD_FAILPOINT(fp_file_close);
    Status s = WriteTailLocked();
    // A native file whose padded last page could not be programmed stays
    // open for a retry; the FTL seals the file either way.
    if (!s.ok() && !env_->SyncWritesTail()) return s;
    closed_ = true;
    meta_->has_writer = false;
    return s;
  }

  uint64_t Size() const override {
    MutexLock lock(&env_->mu_);
    return meta_->size;
  }

  uint64_t PersistedSize() const override {
    MutexLock lock(&env_->mu_);
    return meta_->persisted;
  }

 private:
  // Complete pages go to the device as they fill: the buffered partial page
  // is topped up first, every further full page is programmed straight from
  // `data`, and only the final partial page is buffered — linear in the
  // append. If a placement fails, `tail_` keeps exactly the bytes not yet
  // placed.
  Status AppendLocked(const Slice& data) REQUIRES(env_->mu_) {
    env_->AccountAppendLocked(data.size());
    meta_->size += data.size();
    tail_dirty_ = true;
    const uint32_t page_size = env_->geometry().page_size;
    const char* p = data.data();
    size_t n = data.size();
    if (!tail_.empty()) {
      const size_t take = std::min<size_t>(n, page_size - tail_.size());
      tail_.append(p, take);
      p += take;
      n -= take;
      if (tail_.size() < page_size) return Status::OK();
      if (Status s = PlaceFullPageLocked(tail_); !s.ok()) {
        tail_.append(p, n);
        return s;
      }
      tail_.clear();
    }
    for (; n >= page_size; p += page_size, n -= page_size) {
      if (Status s = PlaceFullPageLocked(Slice(p, page_size)); !s.ok()) {
        tail_.assign(p, n);
        return s;
      }
    }
    tail_.assign(p, n);
    if (tail_.empty()) tail_dirty_ = false;
    return Status::OK();
  }

  Status PlaceFullPageLocked(const Slice& page) REQUIRES(env_->mu_) {
    Status s = env_->PlacePageLocked(meta_.get(), full_pages_, page);
    if (!s.ok()) return s;
    ++full_pages_;
    meta_->persisted = full_pages_ * page.size();
    return Status::OK();
  }

  // Programs the partial tail as the file's next page, zero-padded. On the
  // FTL the page is completed in place once it fills.
  Status WriteTailLocked() REQUIRES(env_->mu_) {
    if (tail_.empty() || !tail_dirty_) return Status::OK();
    Status s = env_->PlacePageLocked(meta_.get(), full_pages_, tail_);
    if (!s.ok()) return s;
    tail_dirty_ = false;
    meta_->persisted = meta_->size;
    return Status::OK();
  }

  SsdEnvImpl* env_;
  std::shared_ptr<FileMeta> meta_;
  std::string tail_;         // Bytes past the last complete page.
  bool tail_dirty_ = false;  // `tail_` holds bytes not yet on the device.
  uint64_t full_pages_ = 0;  // Complete pages on the device.
  bool closed_ = false;
};

class SsdRandomAccessFile final : public RandomAccessFile {
 public:
  SsdRandomAccessFile(SsdEnvImpl* env, std::shared_ptr<FileMeta> meta)
      : env_(env), meta_(std::move(meta)) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    DIRECTLOAD_FAILPOINT(fp_file_read);
    MutexLock lock(&env_->mu_);
    out->clear();
    if (offset > meta_->persisted) {
      return Status::InvalidArgument("read past persisted size");
    }
    const uint64_t end = std::min<uint64_t>(offset + n, meta_->persisted);
    if (end == offset) return Status::OK();
    const uint32_t page_size = env_->geometry().page_size;
    out->reserve(end - offset);
    std::string page;
    for (uint64_t page_idx = offset / page_size; page_idx * page_size < end;
         ++page_idx) {
      Status s = env_->ReadPageLocked(*meta_, page_idx, &page);
      if (!s.ok()) return s;
      const uint64_t page_start = page_idx * page_size;
      const uint64_t lo = std::max<uint64_t>(offset, page_start);
      const uint64_t hi = std::min<uint64_t>(end, page_start + page_size);
      out->append(page.data() + (lo - page_start), hi - lo);
    }
#if DIRECTLOAD_FAILPOINTS_COMPILED
    // Transient read-side damage: the media is intact, this return is not.
    if (fp_file_read_corrupt->armed()) {
      // `corrupt` flips a bit in `out` and returns OK; any other armed
      // action (e.g. return(io)) is a real injected failure — surface it
      // instead of silently swallowing the arming.
      if (Status injected = fp_file_read_corrupt->MaybeFailIo(out, nullptr);
          !injected.ok()) {
        return injected;
      }
    }
#endif
    return Status::OK();
  }

  uint64_t Size() const override {
    MutexLock lock(&env_->mu_);
    return meta_->persisted;
  }

 private:
  SsdEnvImpl* env_;
  std::shared_ptr<FileMeta> meta_;
};

Result<std::unique_ptr<WritableFile>> SsdEnvImpl::NewWritableFile(
    const std::string& name) {
  DIRECTLOAD_FAILPOINT(fp_env_open_writable);
  MutexLock lock(&mu_);
  if (files_.count(name) != 0) {
    return Status::InvalidArgument("file already exists: " + name);
  }
  auto meta = std::make_shared<FileMeta>();
  meta->has_writer = true;
  files_[name] = meta;
  return {std::unique_ptr<WritableFile>(new SsdWritableFile(this, meta))};
}

Result<std::unique_ptr<RandomAccessFile>> SsdEnvImpl::NewRandomAccessFile(
    const std::string& name) {
  DIRECTLOAD_FAILPOINT(fp_env_open_reader);
  MutexLock lock(&mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound(name);
  return {std::unique_ptr<RandomAccessFile>(
      new SsdRandomAccessFile(this, it->second))};
}

}  // namespace

std::unique_ptr<SsdEnv> NewSsdEnv(InterfaceMode mode, const Geometry& geometry,
                                  const LatencyModel& latency,
                                  SimClock* clock) {
  return std::make_unique<SsdEnvImpl>(mode, geometry, latency, clock);
}

}  // namespace directload::ssd
