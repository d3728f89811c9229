#ifndef DIRECTLOAD_QINDB_WRITE_BATCH_H_
#define DIRECTLOAD_QINDB_WRITE_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "aof/record.h"
#include "common/slice.h"
#include "common/status.h"

namespace directload::qindb {

/// One mutation inside a WriteBatch. Owning strings (rather than slices)
/// because a batch outlives the call that built it: under group commit the
/// leader thread reads the ops of *other* threads' batches while those
/// threads wait.
enum class WriteOpKind : uint8_t {
  kPut = 0,
  kDel = 1,
};

struct WriteOp {
  WriteOpKind kind = WriteOpKind::kPut;
  std::string key;
  uint64_t version = 0;
  std::string value;  // kPut only; empty when dedup is set.
  bool dedup = false;
};

/// An ordered sequence of Put/Del operations committed together by
/// QinDb::Write. Ops are applied strictly in insertion order, so an op
/// observes the effects of every earlier op in the same batch (a Del can
/// delete a Put that precedes it). After Write returns, statuses() holds one
/// status per op — a bad op (empty key, oversized record, Del of a missing
/// pair) fails alone without poisoning its neighbors, exactly as the
/// equivalent single-op call would. Retiring a whole version is not a batch
/// op but a per-shard marker (QinDb::DropVersion).
class WriteBatch {
 public:
  void Put(const Slice& key, uint64_t version, const Slice& value,
           bool dedup = false) {
    WriteOp op;
    op.kind = WriteOpKind::kPut;
    op.key = key.ToString();
    op.version = version;
    if (!dedup) op.value = value.ToString();
    op.dedup = dedup;
    approximate_bytes_ += aof::RecordExtent(op.key.size(), op.value.size());
    ops_.push_back(std::move(op));
  }

  void Del(const Slice& key, uint64_t version) {
    WriteOp op;
    op.kind = WriteOpKind::kDel;
    op.key = key.ToString();
    op.version = version;
    // The tombstone every delete logs.
    approximate_bytes_ += aof::RecordExtent(op.key.size(), 0);
    ops_.push_back(std::move(op));
  }

  void Clear() {
    ops_.clear();
    statuses_.clear();
    approximate_bytes_ = 0;
  }

  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  /// Log extent the batch appends (one record per op), the input to the
  /// group-commit byte budget.
  uint64_t ApproximateBytes() const { return approximate_bytes_; }

  const std::vector<WriteOp>& ops() const { return ops_; }

  /// Filled by QinDb::Write: one status per op, in op order. Empty until a
  /// Write has run over this batch.
  const std::vector<Status>& statuses() const { return statuses_; }

 private:
  friend class QinDb;
  friend class Shard;

  std::vector<WriteOp> ops_;
  std::vector<Status> statuses_;
  uint64_t approximate_bytes_ = 0;
};

}  // namespace directload::qindb

#endif  // DIRECTLOAD_QINDB_WRITE_BATCH_H_
