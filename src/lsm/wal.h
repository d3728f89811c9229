#ifndef DIRECTLOAD_LSM_WAL_H_
#define DIRECTLOAD_LSM_WAL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "ssd/env.h"

namespace directload::lsm {

/// Write-ahead log in the LevelDB format: the file is a sequence of 32 KB
/// blocks; each physical record is crc(4) + length(2) + type(1) + payload,
/// with logical records fragmented across blocks as FULL / FIRST / MIDDLE /
/// LAST. The same format backs the MANIFEST.
class LogWriter {
 public:
  explicit LogWriter(ssd::WritableFile* file);

  /// Appends one logical record.
  Status AddRecord(const Slice& record);

  static constexpr uint32_t kBlockSize = 32768;
  static constexpr uint32_t kHeaderSize = 7;

 private:
  ssd::WritableFile* file_;
  uint32_t block_offset_ = 0;
};

/// Reads logical records back, verifying checksums. A torn tail (partial
/// record at the end of the last block) terminates iteration cleanly, which
/// is how crash recovery discards the unsynced suffix.
class LogReader {
 public:
  explicit LogReader(ssd::RandomAccessFile* file);

  /// Reads the next record into `record` (backed by `scratch`). Returns
  /// false at end of log.
  bool ReadRecord(std::string* record);

  /// Non-OK when the log ended due to corruption rather than clean EOF.
  Status status() const { return status_; }

 private:
  enum RecordType : uint8_t {
    kZeroType = 0,  // Preallocated/trailer filler.
    kFullType = 1,
    kFirstType = 2,
    kMiddleType = 3,
    kLastType = 4,
  };

  /// Reads the next physical record; returns its type or kZeroType at EOF.
  uint8_t ReadPhysicalRecord(std::string* payload);

  ssd::RandomAccessFile* file_;
  uint64_t offset_ = 0;
  std::string buffer_;       // Current 32 KB block.
  uint64_t buffer_start_ = 0;
  size_t buffer_pos_ = 0;
  bool eof_ = false;
  Status status_;
};

}  // namespace directload::lsm

#endif  // DIRECTLOAD_LSM_WAL_H_
