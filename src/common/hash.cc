#include "common/hash.h"

#include <cstring>

#include "common/coding.h"

namespace directload {

namespace {

// Final avalanche from MurmurHash3's fmix64; spreads FNV's weak low bits.
uint64_t Mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

uint64_t Rotl64(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

}  // namespace

uint64_t Hash64(const char* data, size_t n, uint64_t seed) {
  constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  constexpr uint64_t kPrime = 0x100000001b3ull;
  uint64_t h = kOffsetBasis ^ seed;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kPrime;
  }
  return Mix64(h);
}

uint32_t Hash32(const char* data, size_t n, uint32_t seed) {
  const uint64_t h = Hash64(data, n, seed);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

uint64_t ValueSignature(const Slice& value) {
  // MurmurHash3's 64-bit block constants. Both are odd, so multiplying by
  // either is a bijection; with the xor and rotate, each step below maps
  // the running state one-to-one for a fixed word and the word one-to-one
  // for a fixed state.
  constexpr uint64_t kMulWord = 0x87c37b91114253d5ull;
  constexpr uint64_t kMulState = 0x4cf5ad432745937full;
  constexpr uint64_t kSeed = 0x9e3779b97f4a7c15ull;
  const size_t n = value.size();
  const char* p = value.data();
  auto step = [](uint64_t h, uint64_t word) {
    return Rotl64(h ^ (word * kMulWord), 31) * kMulState;
  };
  uint64_t h = kSeed ^ (static_cast<uint64_t>(n) * kMulState);
  const char* const words_end = p + (n & ~size_t{7});
  for (; p != words_end; p += 8) h = step(h, DecodeFixed64(p));
  if (const size_t tail = n & 7; tail != 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, tail);
    h = step(h, word);
  }
  return Mix64(h ^ n);
}

}  // namespace directload
