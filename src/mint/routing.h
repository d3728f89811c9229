#ifndef DIRECTLOAD_MINT_ROUTING_H_
#define DIRECTLOAD_MINT_ROUTING_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/slice.h"

namespace directload::mint {

/// Key placement, shared verbatim by the in-process MintCluster and the
/// distributed MintCoordinator: both sides of the process split must agree
/// on where a pair lives, or repair would "heal" pairs onto nodes that are
/// not responsible for them.

/// H(k) maps to a *group*, never directly to a node (Section 2.3:
/// scalability without redistribution).
inline int GroupOfKey(const Slice& key, int num_groups) {
  return static_cast<int>(Hash64(key) % static_cast<uint64_t>(num_groups));
}

/// Rendezvous hashing within the group: rank `members` (node ids) by
/// hash(key, node) and take the top `replicas` into `out`. Stable under
/// membership growth for most keys. `ranked` is scratch: a caller routing
/// many keys reuses both buffers and allocates nothing per key.
inline void RendezvousReplicas(const Slice& key,
                               const std::vector<int>& members, int replicas,
                               std::vector<std::pair<uint64_t, int>>* ranked,
                               std::vector<int>* out) {
  ranked->clear();
  for (int id : members) {
    ranked->emplace_back(Hash64(key, /*seed=*/0x5eed0000 + id), id);
  }
  std::sort(ranked->begin(), ranked->end(), std::greater<>());
  const int want =
      std::min<int>(replicas, static_cast<int>(ranked->size()));
  out->clear();
  out->reserve(static_cast<size_t>(want));
  for (int i = 0; i < want; ++i) out->push_back((*ranked)[i].second);
}

inline std::vector<int> RendezvousReplicas(const Slice& key,
                                           const std::vector<int>& members,
                                           int replicas) {
  std::vector<std::pair<uint64_t, int>> ranked;
  ranked.reserve(members.size());
  std::vector<int> out;
  RendezvousReplicas(key, members, replicas, &ranked, &out);
  return out;
}

}  // namespace directload::mint

#endif  // DIRECTLOAD_MINT_ROUTING_H_
