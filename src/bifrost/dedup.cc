#include "bifrost/dedup.h"

#include "common/hash.h"

namespace directload::bifrost {

std::vector<ShippedPair> Deduplicator::Process(
    const webindex::IndexDataset& dataset, DedupStats* stats) {
  std::vector<ShippedPair> out;
  out.reserve(dataset.pairs.size());
  if (enabled_) signatures_.reserve(dataset.pairs.size());
  DedupStats local;
  for (const webindex::KvPair& kv : dataset.pairs) {
    ShippedPair& shipped = out.emplace_back();
    shipped.key = kv.key;
    if (enabled_) {
      // One probe: insert the signature, or compare and update in place.
      const uint64_t signature = ValueSignature(kv.value);
      auto [it, inserted] = signatures_.try_emplace(kv.key, signature);
      if (!inserted && it->second == signature) {
        shipped.dedup = true;  // Value field removed before delivery.
      } else {
        it->second = signature;
        shipped.value = kv.value;
      }
    } else {
      shipped.value = kv.value;
    }
    local.pairs_deduped += shipped.dedup ? 1 : 0;
    local.bytes_total += kv.key.size() + kv.value.size();
    local.bytes_shipped += shipped.key.size() + shipped.value.size();
  }
  local.pairs_total = out.size();
  if (stats != nullptr) stats->Merge(local);
  return out;
}

}  // namespace directload::bifrost
