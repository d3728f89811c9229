#ifndef DIRECTLOAD_LSM_SSTABLE_H_
#define DIRECTLOAD_LSM_SSTABLE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "lsm/block.h"
#include "lsm/bloom.h"
#include "lsm/cache.h"
#include "lsm/iterator.h"
#include "lsm/options.h"
#include "ssd/env.h"

namespace directload::lsm {

/// Location of a block within an SSTable file.
struct BlockHandle {
  uint64_t offset = 0;
  uint64_t size = 0;

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, BlockHandle* out);
};

/// Builds one SSTable: prefix-compressed data blocks, a table-wide bloom
/// filter over user keys, an index block mapping each data block's last key
/// to its handle, and a fixed-size footer.
class TableBuilder {
 public:
  TableBuilder(const LsmOptions& options, ssd::WritableFile* file);

  /// Internal keys must arrive in strictly increasing internal order.
  Status Add(const Slice& internal_key, const Slice& value);

  /// Writes filter + index + footer. The file is not closed.
  Status Finish();

  uint64_t NumEntries() const { return num_entries_; }
  /// Bytes written so far (approximate until Finish).
  uint64_t FileSize() const { return offset_; }
  const std::string& smallest_key() const { return smallest_key_; }
  const std::string& largest_key() const { return largest_key_; }

 private:
  Status FlushDataBlock();
  Status WriteBlock(const Slice& contents, BlockHandle* handle);

  ssd::WritableFile* file_;
  BlockBuilder data_block_;
  BlockBuilder index_block_;
  BloomFilterBuilder filter_;
  std::string pending_index_key_;  // Last key of the block awaiting an index entry.
  BlockHandle pending_handle_;
  bool pending_index_entry_ = false;
  uint64_t offset_ = 0;
  uint64_t num_entries_ = 0;
  std::string smallest_key_;
  std::string largest_key_;
};

/// Shared cache of decoded data blocks, keyed by (file number, offset).
using BlockCache = LruCache<Block>;

/// Read-side handle on one SSTable. The index and filter blocks stay pinned
/// in the object (as LevelDB pins them per open table); data blocks go
/// through the shared block cache.
class TableReader {
 public:
  static Result<std::unique_ptr<TableReader>> Open(
      std::unique_ptr<ssd::RandomAccessFile> file, uint64_t file_size,
      uint64_t file_number, BlockCache* block_cache);

  /// Point lookup for the internal-key probe. Outcomes:
  ///   *found=false                      — user key not in this table;
  ///   *found=true,  *is_deletion=false — *value set;
  ///   *found=true,  *is_deletion=true  — tombstone.
  /// `filter_skipped` (optional) reports that the bloom filter short-
  /// circuited the lookup.
  Status InternalGet(const Slice& internal_probe, std::string* value,
                     bool* found, bool* is_deletion,
                     bool* filter_skipped = nullptr);

  /// Iterator over the whole table (internal keys).
  std::unique_ptr<Iterator> NewIterator();

 private:
  class TwoLevelIterator;

  TableReader(std::unique_ptr<ssd::RandomAccessFile> file,
              uint64_t file_number, BlockCache* block_cache);

  /// Loads (through the cache) the data block for `handle`.
  Result<std::shared_ptr<Block>> ReadDataBlock(const BlockHandle& handle);
  Status ReadRawBlock(const BlockHandle& handle, std::string* contents) const;

  std::unique_ptr<ssd::RandomAccessFile> file_;
  uint64_t file_number_;
  BlockCache* block_cache_;
  std::unique_ptr<Block> index_block_;
  std::string filter_;
};

}  // namespace directload::lsm

#endif  // DIRECTLOAD_LSM_SSTABLE_H_
