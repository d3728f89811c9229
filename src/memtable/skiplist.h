#ifndef DIRECTLOAD_MEMTABLE_SKIPLIST_H_
#define DIRECTLOAD_MEMTABLE_SKIPLIST_H_

#include <atomic>
#include <cassert>
#include <cstdint>

#include "common/arena.h"
#include "common/random.h"

namespace directload {

/// An arena-backed skip list (Pugh [8] in the paper), the sorted in-memory
/// structure behind both QinDB's memtable and the LSM baseline's memtable.
///
/// Template parameters:
///   Key        — copyable, trivially destructible key type (typically a
///                pointer to an arena-allocated entry).
///   Comparator — functor with `int operator()(const Key&, const Key&)`
///                returning <0 / 0 / >0.
///
/// The list never removes nodes; deletion is expressed by the layers above
/// (flags in QinDB, tombstones in the LSM engine), which matches both
/// engines' semantics.
///
/// Thread model (the LevelDB discipline): writes require external
/// synchronization — one Insert at a time — but reads need none. Next
/// pointers are atomics; an insert initializes the new node and links it
/// bottom-up with release stores, so a reader that observes a node via an
/// acquire load also observes the node's contents. Readers may therefore
/// traverse concurrently with one writer, and nodes are never unlinked or
/// freed while the owning arena lives.
template <typename Key, class Comparator>
class SkipList {
 public:
  SkipList(Comparator cmp, Arena* arena, uint64_t seed = 0xdecaf)
      : compare_(cmp),
        arena_(arena),
        head_(NewNode(Key(), kMaxHeight)),
        max_height_(1),
        rnd_(seed) {
    for (int i = 0; i < kMaxHeight; ++i) head_->NoBarrier_SetNext(i, nullptr);
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Inserts `key`. Requires that an equal key has not already been
  /// inserted (equality under the comparator), and that no other thread is
  /// inserting concurrently.
  void Insert(const Key& key) {
    Node* prev[kMaxHeight];
    Node* x = FindGreaterOrEqual(key, prev);
    assert(x == nullptr || compare_(key, x->key) != 0);
    const int height = RandomHeight();
    if (height > GetMaxHeight()) {
      for (int i = GetMaxHeight(); i < height; ++i) prev[i] = head_;
      // A relaxed store suffices: a reader seeing the new height before the
      // new node simply starts from head_'s null pointers at those levels.
      max_height_.store(height, std::memory_order_relaxed);
    }
    x = NewNode(key, height);
    for (int i = 0; i < height; ++i) {
      // The new node's forward pointers need no barrier yet: the node is
      // unpublished. The prev->SetNext release store publishes it (and the
      // key contents written before this loop).
      x->NoBarrier_SetNext(i, prev[i]->NoBarrier_Next(i));
      prev[i]->SetNext(i, x);
    }
    size_.fetch_add(1, std::memory_order_relaxed);
  }

  bool Contains(const Key& key) const {
    Node* x = FindGreaterOrEqual(key, nullptr);
    return x != nullptr && compare_(key, x->key) == 0;
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Forward/backward iteration over the list contents.
  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }

    const Key& key() const {
      assert(Valid());
      return node_->key;
    }

    void Next() {
      assert(Valid());
      node_ = node_->Next(0);
    }

    /// Retreats to the previous entry (O(log n): re-searches from the head).
    void Prev() {
      assert(Valid());
      node_ = list_->FindLessThan(node_->key);
      if (node_ == list_->head_) node_ = nullptr;
    }

    /// Positions at the first entry >= target.
    void Seek(const Key& target) {
      node_ = list_->FindGreaterOrEqual(target, nullptr);
    }

    /// Positions at the last entry < target.
    void SeekBefore(const Key& target) {
      node_ = list_->FindLessThan(target);
      if (node_ == list_->head_) node_ = nullptr;
    }

    void SeekToFirst() { node_ = list_->head_->Next(0); }

    void SeekToLast() {
      node_ = list_->FindLast();
      if (node_ == list_->head_) node_ = nullptr;
    }

   private:
    const SkipList* list_;
    typename SkipList::Node* node_;
  };

 private:
  static constexpr int kMaxHeight = 12;
  static constexpr int kBranching = 4;

  struct Node {
    explicit Node(const Key& k) : key(k) {}

    Key key;

    Node* Next(int level) const {
      return next_[level].load(std::memory_order_acquire);
    }
    void SetNext(int level, Node* n) {
      next_[level].store(n, std::memory_order_release);
    }
    Node* NoBarrier_Next(int level) const {
      return next_[level].load(std::memory_order_relaxed);
    }
    void NoBarrier_SetNext(int level, Node* n) {
      next_[level].store(n, std::memory_order_relaxed);
    }

   private:
    // Over-allocated to the node's height by NewNode.
    std::atomic<Node*> next_[1];
  };

  Node* NewNode(const Key& key, int height) {
    char* mem = arena_->AllocateAligned(
        sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1));
    return new (mem) Node(key);
  }

  int GetMaxHeight() const {
    return max_height_.load(std::memory_order_relaxed);
  }

  int RandomHeight() {
    int height = 1;
    while (height < kMaxHeight && rnd_.Uniform(kBranching) == 0) ++height;
    return height;
  }

  /// First node >= key; fills prev[] with the rightmost node before it at
  /// each level when prev != nullptr.
  Node* FindGreaterOrEqual(const Key& key, Node** prev) const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next != nullptr && compare_(next->key, key) < 0) {
        x = next;
      } else {
        if (prev != nullptr) prev[level] = x;
        if (level == 0) return next;
        --level;
      }
    }
  }

  /// Last node < key, or head_.
  Node* FindLessThan(const Key& key) const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next != nullptr && compare_(next->key, key) < 0) {
        x = next;
      } else {
        if (level == 0) return x;
        --level;
      }
    }
  }

  /// Last node in the list, or head_.
  Node* FindLast() const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next != nullptr) {
        x = next;
      } else {
        if (level == 0) return x;
        --level;
      }
    }
  }

  Comparator const compare_;
  Arena* const arena_;
  Node* const head_;
  std::atomic<int> max_height_;
  Random rnd_;  // Writer-only (guarded by the external insert lock).
  std::atomic<size_t> size_{0};
};

}  // namespace directload

#endif  // DIRECTLOAD_MEMTABLE_SKIPLIST_H_
