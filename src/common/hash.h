#ifndef DIRECTLOAD_COMMON_HASH_H_
#define DIRECTLOAD_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

#include "common/slice.h"

namespace directload {

/// 64-bit FNV-1a with an avalanche finalizer. The H(k) dispatch hash in Mint
/// and the shard-routing hash in QinDB: both place keys, so its output must
/// never change. Dependency-free and good enough for the simulated corpus
/// sizes, but it walks one byte at a time — hashing bulk value bytes uses
/// ValueSignature instead.
uint64_t Hash64(const char* data, size_t n, uint64_t seed = 0);

inline uint64_t Hash64(const Slice& s, uint64_t seed = 0) {
  return Hash64(s.data(), s.size(), seed);
}

/// 32-bit hash for bloom filters and in-memory tables.
uint32_t Hash32(const char* data, size_t n, uint32_t seed = 0xbc9f1d34u);

inline uint32_t Hash32(const Slice& s, uint32_t seed = 0xbc9f1d34u) {
  return Hash32(s.data(), s.size(), seed);
}

/// Content signature of a value field, as compared across consecutive index
/// versions by Bifrost (Section 2.2 of the paper). The paper only asks for a
/// collision-resistant-in-practice signature; this one reads the value eight
/// bytes at a time (the tail zero-padded) and folds in the length, so `"a"`
/// and `"a\0"` differ. Each word step is one-to-one in both the running
/// state and the word, so an edit confined to one 8-byte word of a value
/// always changes its signature. Signatures live only in the deduplicator's
/// memory and are never persisted.
uint64_t ValueSignature(const Slice& value);

}  // namespace directload

#endif  // DIRECTLOAD_COMMON_HASH_H_
