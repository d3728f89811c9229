#ifndef DIRECTLOAD_CORE_DIRECTLOAD_H_
#define DIRECTLOAD_CORE_DIRECTLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bifrost/dedup.h"
#include "bifrost/delivery.h"
#include "common/random.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "index/builders.h"
#include "index/corpus.h"
#include "mint/cluster.h"

namespace directload::core {

struct DirectLoadOptions {
  webindex::CorpusOptions corpus;
  bifrost::DeliveryOptions delivery;
  mint::MintOptions mint;  // Per-data-center cluster configuration.

  uint64_t slice_bytes = 1 << 20;

  /// Turn Bifrost's deduplication off to get the paper's "without
  /// DirectLoad" baseline (Figure 10a).
  bool dedup_enabled = true;

  /// Ship the forward index (<URL, terms>) alongside the inverted index —
  /// Figure 1's blue arrows carry both. Off by default in the scaled
  /// simulation; the forward index rides the inverted bandwidth class.
  bool ship_forward = false;

  /// Gray release: the new version activates first at one data center
  /// (kGrayDc) and must keep query inconsistency below this rate before
  /// activating everywhere (Section 3 reports < 0.1 %).
  int gray_probe_queries = 50;
  double gray_max_inconsistency = 0.001;
};

/// Everything measured about one index-update cycle.
struct UpdateReport {
  uint64_t version = 0;
  uint64_t docs_changed = 0;

  bifrost::DedupStats dedup;
  bifrost::DeliveryReport delivery;

  /// Pairs and bytes actually stored (per data center, max across DCs).
  uint64_t pairs_ingested = 0;
  double ingest_seconds = 0;  // Max storage-node device time this cycle.

  /// End-to-end update time: transmission pipelined with storage ingest.
  double update_time_seconds = 0;

  /// Cluster-level ingest throughput in keys/sec (Figure 10a's kps).
  double throughput_kps = 0;

  bool gray_release_passed = false;
  double gray_inconsistency = 0;

  uint64_t version_pruned = 0;  // 0 when nothing was pruned.
};

/// The whole pipeline of Figure 1: crawl round -> index building -> Bifrost
/// dedup + slicing + cross-region transmission -> Mint ingestion at six
/// data centers -> gray release -> activation + old-version pruning.
class DirectLoad {
 public:
  explicit DirectLoad(const DirectLoadOptions& options);

  Status Start();

  /// Runs one full update cycle (one crawl round / index version). A
  /// negative change_rate uses the corpus default. `vip_only` runs the
  /// higher-frequency VIP-tier round (Section 3): only VIP documents
  /// mutate; everything else ships deduplicated. After a failed cycle the
  /// next one ships every value in full.
  Result<UpdateReport> RunUpdateCycle(double change_rate = -1.0,
                                      bool vip_only = false);

  /// Serves a search query at a data center against its *active* version:
  /// term -> URLs (inverted index) -> abstracts (summary index, fetched
  /// from a summary-holding DC). Returns the matching URLs.
  struct QueryResult {
    std::vector<std::string> urls;
    std::vector<std::string> abstracts;
  };
  Result<QueryResult> Query(int dc, uint32_t term, size_t top_k = 5);

  /// Rolls the active version of every data center back to the previous
  /// one (the paper's "last resort").
  Status Rollback();

  const webindex::Corpus& corpus() const { return *corpus_; }
  mint::MintCluster* data_center(int dc) { return clusters_[dc].get(); }
  /// For fault injection (congestion, corruption) in tests and benches.
  bifrost::DeliveryService* delivery() { return delivery_.get(); }
  uint64_t active_version(int dc) const { return active_version_[dc]; }
  SimClock* network_clock() { return &net_clock_; }

 private:
  /// RunUpdateCycle without the reset after a failure.
  Result<UpdateReport> RunCycle(double change_rate, bool vip_only);

  /// Fraction of `probes` sample queries at `dc` whose stored results
  /// disagree with the corpus ground truth for `version`.
  Result<double> ProbeInconsistency(int dc, uint64_t version, int probes);

  DirectLoadOptions options_;
  SimClock net_clock_;
  std::unique_ptr<webindex::Corpus> corpus_;
  bifrost::Deduplicator summary_dedup_;
  bifrost::Deduplicator inverted_dedup_;
  bifrost::Deduplicator forward_dedup_;
  std::unique_ptr<bifrost::DeliveryService> delivery_;
  std::vector<std::unique_ptr<mint::MintCluster>> clusters_;
  std::vector<uint64_t> active_version_;
  std::vector<uint64_t> stored_versions_;  // Count per DC (pruning).
  uint64_t oldest_version_ = 1;
  Random rng_;
};

}  // namespace directload::core

#endif  // DIRECTLOAD_CORE_DIRECTLOAD_H_
