#ifndef DIRECTLOAD_SSD_ENV_H_
#define DIRECTLOAD_SSD_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_clock.h"
#include "common/slice.h"
#include "common/status.h"
#include "ssd/geometry.h"

namespace directload::ssd {

/// Append-only file handle. Complete pages are written through to the device
/// as they fill; the sub-page tail is buffered in memory until Sync (FTL
/// mode) or Close (native mode — the tail page is padded so writes stay
/// block-aligned, per the paper's Section 2.3). Bytes not yet on the device
/// are lost on a simulated crash; storage engines handle torn tails with
/// record checksums.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const Slice& data) = 0;

  /// Persists as much as the interface mode allows (see class comment).
  virtual Status Sync() = 0;

  /// Persists everything and seals the file. Idempotent.
  virtual Status Close() = 0;

  /// Logical bytes appended so far (including unsynced tail).
  virtual uint64_t Size() const = 0;

  /// Logical bytes guaranteed readable via RandomAccessFile right now.
  virtual uint64_t PersistedSize() const = 0;
};

/// Read-only positional access to a file. May be opened while the file is
/// still being written; reads are limited to the persisted prefix.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Reads file bytes [offset, offset+n), clamped at the persisted size.
  /// Returns InvalidArgument if offset lies beyond it.
  virtual Status Read(uint64_t offset, size_t n, std::string* out) const = 0;

  virtual uint64_t Size() const = 0;
};

/// Which SSD interface backs the environment. This is the paper's central
/// hardware-level contrast (Section 2.3, "Block-aligned files").
enum class InterfaceMode {
  /// Conventional page-mapped FTL with device-internal GC; files may be
  /// placed and deleted at page granularity. The LevelDB baseline's world.
  kPageMappedFtl,
  /// Host-managed native interface: files own whole 256 KB erase blocks and
  /// deletion erases them directly, so the device never migrates pages.
  /// QinDB's world.
  kNativeBlock,
};

std::string_view InterfaceModeName(InterfaceMode mode);

/// A flat-namespace filesystem over a simulated SSD. One implementation
/// serves both interface modes, which differ only in where a file's pages go.
/// Thread-safe: an env serializes env and file operations on one plain mutex
/// of rank LockRank::kSsdEnv (internal composition — rename→delete,
/// close→tail write, file→allocator — goes through *Locked methods rather
/// than re-acquiring),
/// matching a real device's single command queue. Timing stays simulated,
/// but callers (engine writer/reader threads, replica read threads) are real
/// threads.
class SsdEnv {
 public:
  virtual ~SsdEnv() = default;

  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& name) = 0;
  virtual Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& name) = 0;

  /// Removes a file. FTL mode trims its pages (reclaimed later by device
  /// GC); native mode erases its blocks immediately.
  virtual Status DeleteFile(const std::string& name) = 0;

  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;
  virtual bool FileExists(const std::string& name) const = 0;
  virtual Result<uint64_t> GetFileSize(const std::string& name) const = 0;
  virtual std::vector<std::string> ListFiles() const = 0;

  /// Device-space footprint of all files: allocated pages (FTL mode) or
  /// owned blocks (native mode) times their size. Drives Figure 7.
  virtual uint64_t TotalFileBytes() const = 0;

  /// Host-usable capacity: logical capacity (FTL mode) or all blocks
  /// (native mode).
  virtual uint64_t CapacityBytes() const = 0;

  virtual const SsdStats& stats() const = 0;
  virtual const Geometry& geometry() const = 0;
  virtual InterfaceMode mode() const = 0;
  virtual SimClock* clock() = 0;

  /// Targeted fault injection for tests: flips one bit of the persisted
  /// byte at `offset` of file `name` (silent media corruption). The
  /// checksums of the storage formats above must detect it. For randomized
  /// or schedule-driven injection use the failpoint framework instead
  /// (common/failpoint.h): the "ssd_file_append" point's `corrupt`/`short`
  /// actions damage data in flight, "ssd_file_read_corrupt" damages reads,
  /// and every env entry point carries an error/delay failpoint.
  virtual Status CorruptFileByteForTesting(const std::string& name,
                                           uint64_t offset) = 0;

  /// Crash simulation for tests: forgets every open writer, as if the
  /// process died — unsynced tails are lost and files become deletable.
  /// Leaked WritableFile handles must not be used afterwards.
  virtual void SimulateCrashForTesting() = 0;

  /// Total bytes the host has appended through WritableFile (pre-padding).
  /// Atomic: benchmark threads read it while writer threads append.
  uint64_t host_bytes_appended() const {
    return host_bytes_appended_.load(std::memory_order_relaxed);
  }

 protected:
  std::atomic<uint64_t> host_bytes_appended_{0};
};

/// Creates an environment over a freshly formatted simulated SSD.
std::unique_ptr<SsdEnv> NewSsdEnv(InterfaceMode mode, const Geometry& geometry,
                                  const LatencyModel& latency, SimClock* clock);

}  // namespace directload::ssd

#endif  // DIRECTLOAD_SSD_ENV_H_
