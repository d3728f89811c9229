#include "lsm/sstable.h"

#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"
#include "lsm/bloom.h"
#include "lsm/format.h"

namespace directload::lsm {

namespace {

constexpr uint64_t kTableMagic = 0x6469726c73737462ull;  // "dirlsstb"
constexpr size_t kFooterSize = 48;  // 2 handles (<=40) padded + magic.

/// Uncompressed data block target size, and the restart point interval
/// inside a data block (LevelDB's defaults).
constexpr size_t kBlockSize = 4096;
constexpr int kBlockRestartInterval = 16;

std::string BlockCacheKey(uint64_t file_number, uint64_t offset) {
  std::string key;
  PutFixed64(&key, file_number);
  PutFixed64(&key, offset);
  return key;
}

}  // namespace

void BlockHandle::EncodeTo(std::string* dst) const {
  PutVarint64(dst, offset);
  PutVarint64(dst, size);
}

bool BlockHandle::DecodeFrom(Slice* input, BlockHandle* out) {
  return GetVarint64(input, &out->offset) && GetVarint64(input, &out->size);
}

// ---------------------------------------------------------------------------
// TableBuilder
// ---------------------------------------------------------------------------

TableBuilder::TableBuilder(const LsmOptions& options, ssd::WritableFile* file)
    : file_(file),
      data_block_(kBlockRestartInterval),
      index_block_(1),
      filter_(options.bloom_bits_per_key) {}

Status TableBuilder::Add(const Slice& internal_key, const Slice& value) {
  if (pending_index_entry_) {
    // Emit the deferred index entry now that we know the separating key.
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(pending_index_key_, handle_encoding);
    pending_index_entry_ = false;
  }
  if (smallest_key_.empty()) {
    smallest_key_.assign(internal_key.data(), internal_key.size());
  }
  largest_key_.assign(internal_key.data(), internal_key.size());
  filter_.AddKey(ExtractUserKey(internal_key));
  data_block_.Add(internal_key, value);
  ++num_entries_;
  if (data_block_.CurrentSizeEstimate() >= kBlockSize) {
    return FlushDataBlock();
  }
  return Status::OK();
}

Status TableBuilder::FlushDataBlock() {
  if (data_block_.empty()) return Status::OK();
  pending_index_key_ = data_block_.last_key();
  Status s = WriteBlock(data_block_.Finish(), &pending_handle_);
  if (!s.ok()) return s;
  data_block_.Reset();
  pending_index_entry_ = true;
  return Status::OK();
}

Status TableBuilder::WriteBlock(const Slice& contents, BlockHandle* handle) {
  handle->offset = offset_;
  handle->size = contents.size();
  Status s = file_->Append(contents);
  if (!s.ok()) return s;
  // Per-block checksum trailer.
  char trailer[4];
  EncodeFixed32(trailer,
                crc32c::Mask(crc32c::Value(contents.data(), contents.size())));
  s = file_->Append(Slice(trailer, 4));
  if (!s.ok()) return s;
  offset_ += contents.size() + 4;
  return Status::OK();
}

Status TableBuilder::Finish() {
  Status s = FlushDataBlock();
  if (!s.ok()) return s;

  // Filter block (raw bloom bytes).
  BlockHandle filter_handle;
  const std::string filter = filter_.Finish();
  s = WriteBlock(filter, &filter_handle);
  if (!s.ok()) return s;

  // Index block.
  if (pending_index_entry_) {
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(pending_index_key_, handle_encoding);
    pending_index_entry_ = false;
  }
  BlockHandle index_handle;
  s = WriteBlock(index_block_.Finish(), &index_handle);
  if (!s.ok()) return s;

  // Footer.
  std::string footer;
  filter_handle.EncodeTo(&footer);
  index_handle.EncodeTo(&footer);
  footer.resize(kFooterSize - 8);
  PutFixed64(&footer, kTableMagic);
  s = file_->Append(footer);
  if (!s.ok()) return s;
  offset_ += footer.size();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// TableReader
// ---------------------------------------------------------------------------

TableReader::TableReader(std::unique_ptr<ssd::RandomAccessFile> file,
                         uint64_t file_number, BlockCache* block_cache)
    : file_(std::move(file)),
      file_number_(file_number),
      block_cache_(block_cache) {}

Result<std::unique_ptr<TableReader>> TableReader::Open(
    std::unique_ptr<ssd::RandomAccessFile> file, uint64_t file_size,
    uint64_t file_number, BlockCache* block_cache) {
  if (file_size < kFooterSize) {
    return Status::Corruption("table too small for footer");
  }
  std::string footer;
  Status s = file->Read(file_size - kFooterSize, kFooterSize, &footer);
  if (!s.ok()) return s;
  if (DecodeFixed64(footer.data() + kFooterSize - 8) != kTableMagic) {
    return Status::Corruption("bad table magic");
  }
  Slice in(footer.data(), kFooterSize - 8);
  BlockHandle filter_handle, index_handle;
  if (!BlockHandle::DecodeFrom(&in, &filter_handle) ||
      !BlockHandle::DecodeFrom(&in, &index_handle)) {
    return Status::Corruption("bad footer handles");
  }

  std::unique_ptr<TableReader> reader(
      new TableReader(std::move(file), file_number, block_cache));
  s = reader->ReadRawBlock(filter_handle, &reader->filter_);
  if (!s.ok()) return s;
  std::string index_contents;
  s = reader->ReadRawBlock(index_handle, &index_contents);
  if (!s.ok()) return s;
  reader->index_block_ = std::make_unique<Block>(std::move(index_contents));
  return reader;
}

Status TableReader::ReadRawBlock(const BlockHandle& handle,
                                 std::string* contents) const {
  std::string raw;
  Status s = file_->Read(handle.offset, handle.size + 4, &raw);
  if (!s.ok()) return s;
  if (raw.size() != handle.size + 4) {
    return Status::Corruption("truncated block read");
  }
  const uint32_t expected = crc32c::Unmask(DecodeFixed32(raw.data() + handle.size));
  if (crc32c::Value(raw.data(), handle.size) != expected) {
    return Status::Corruption("block checksum mismatch");
  }
  contents->assign(raw.data(), handle.size);
  return Status::OK();
}

Result<std::shared_ptr<Block>> TableReader::ReadDataBlock(
    const BlockHandle& handle) {
  const std::string cache_key = BlockCacheKey(file_number_, handle.offset);
  if (block_cache_ != nullptr) {
    std::shared_ptr<Block> cached = block_cache_->Lookup(cache_key);
    if (cached != nullptr) return cached;
  }
  std::string contents;
  Status s = ReadRawBlock(handle, &contents);
  if (!s.ok()) return s;
  auto block = std::make_shared<Block>(std::move(contents));
  if (block_cache_ != nullptr) {
    block_cache_->Insert(cache_key, block, block->size());
  }
  return block;
}

Status TableReader::InternalGet(const Slice& internal_probe,
                                std::string* value, bool* found,
                                bool* is_deletion, bool* filter_skipped) {
  *found = false;
  if (filter_skipped != nullptr) *filter_skipped = false;
  const Slice user_key = ExtractUserKey(internal_probe);
  if (!BloomFilterMayMatch(filter_, user_key)) {
    if (filter_skipped != nullptr) *filter_skipped = true;
    return Status::OK();
  }
  std::unique_ptr<Iterator> index_it =
      index_block_->NewIterator(GetInternalKeyComparator());
  index_it->Seek(internal_probe);
  if (!index_it->Valid()) return index_it->status();

  Slice handle_value = index_it->value();
  BlockHandle handle;
  if (!BlockHandle::DecodeFrom(&handle_value, &handle)) {
    return Status::Corruption("bad index entry");
  }
  Result<std::shared_ptr<Block>> block = ReadDataBlock(handle);
  if (!block.ok()) return block.status();
  std::unique_ptr<Iterator> data_it =
      (*block)->NewIterator(GetInternalKeyComparator());
  data_it->Seek(internal_probe);
  if (!data_it->Valid()) return data_it->status();
  if (ExtractUserKey(data_it->key()) != user_key) return Status::OK();
  *found = true;
  *is_deletion = ExtractValueType(data_it->key()) == kTypeDeletion;
  if (!*is_deletion) value->assign(data_it->value().data(),
                                   data_it->value().size());
  return Status::OK();
}

// Two-level iterator: walks the index block; materializes data blocks.
class TableReader::TwoLevelIterator final : public Iterator {
 public:
  explicit TwoLevelIterator(TableReader* table)
      : table_(table),
        index_it_(table->index_block_->NewIterator(GetInternalKeyComparator())) {}

  bool Valid() const override {
    return data_it_ != nullptr && data_it_->Valid();
  }

  void SeekToFirst() override {
    index_it_->SeekToFirst();
    InitDataBlock();
    if (data_it_ != nullptr) data_it_->SeekToFirst();
    SkipEmptyBlocksForward();
  }

  void Seek(const Slice& target) override {
    index_it_->Seek(target);
    InitDataBlock();
    if (data_it_ != nullptr) data_it_->Seek(target);
    SkipEmptyBlocksForward();
  }

  void Next() override {
    data_it_->Next();
    SkipEmptyBlocksForward();
  }

  Slice key() const override { return data_it_->key(); }
  Slice value() const override { return data_it_->value(); }
  Status status() const override {
    if (!status_.ok()) return status_;
    if (data_it_ != nullptr && !data_it_->status().ok()) {
      return data_it_->status();
    }
    return index_it_->status();
  }

 private:
  void InitDataBlock() {
    data_it_.reset();
    block_.reset();
    if (!index_it_->Valid()) return;
    Slice handle_value = index_it_->value();
    BlockHandle handle;
    if (!BlockHandle::DecodeFrom(&handle_value, &handle)) {
      status_ = Status::Corruption("bad index entry");
      return;
    }
    Result<std::shared_ptr<Block>> block = table_->ReadDataBlock(handle);
    if (!block.ok()) {
      status_ = block.status();
      return;
    }
    block_ = *block;
    data_it_ = block_->NewIterator(GetInternalKeyComparator());
  }

  void SkipEmptyBlocksForward() {
    while (data_it_ == nullptr || !data_it_->Valid()) {
      if (!index_it_->Valid()) {
        data_it_.reset();
        return;
      }
      index_it_->Next();
      InitDataBlock();
      if (data_it_ != nullptr) data_it_->SeekToFirst();
    }
  }

  TableReader* table_;
  std::unique_ptr<Iterator> index_it_;
  std::shared_ptr<Block> block_;  // Keeps the cached block alive.
  std::unique_ptr<Iterator> data_it_;
  Status status_;
};

std::unique_ptr<Iterator> TableReader::NewIterator() {
  return std::make_unique<TwoLevelIterator>(this);
}

const InternalKeyComparator* GetInternalKeyComparator() {
  static const InternalKeyComparator* comparator =
      new InternalKeyComparator();
  return comparator;
}

}  // namespace directload::lsm
