#include "core/directload.h"

#include <algorithm>

#include "bifrost/wire/slice_codec.h"
#include "common/logging.h"

namespace directload::core {

namespace {

/// Versions retained in storage before the oldest is pruned ("at most four
/// versions of index data persist", Section 1.1.2).
constexpr uint64_t kMaxVersions = 4;

/// The data center a new version activates at first (gray release).
constexpr int kGrayDc = 0;

/// DirectLoad ships no explicit deletes: old versions go by pruning.
const std::vector<bifrost::wire::BulkDelete> kNoDeletes;

/// Seed of `rng_`, which picks the gray-release probe queries.
constexpr uint64_t kProbeSeed = 99;

}  // namespace

DirectLoad::DirectLoad(const DirectLoadOptions& options)
    : options_(options),
      summary_dedup_(options.dedup_enabled),
      inverted_dedup_(options.dedup_enabled),
      forward_dedup_(options.dedup_enabled),
      rng_(kProbeSeed) {
  corpus_ = std::make_unique<webindex::Corpus>(options_.corpus);
  delivery_ =
      std::make_unique<bifrost::DeliveryService>(&net_clock_, options_.delivery);
  for (int dc = 0; dc < bifrost::kNumDataCenters; ++dc) {
    clusters_.push_back(std::make_unique<mint::MintCluster>(options_.mint));
  }
  active_version_.assign(bifrost::kNumDataCenters, 0);
  stored_versions_.assign(bifrost::kNumDataCenters, 0);
}

Status DirectLoad::Start() {
  for (auto& cluster : clusters_) {
    Status s = cluster->Start();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Result<UpdateReport> DirectLoad::RunUpdateCycle(double change_rate,
                                                bool vip_only) {
  Result<UpdateReport> report = RunCycle(change_rate, vip_only);
  if (!report.ok()) {
    // The signature stores already describe the failed version, which some
    // data centers never stored and others (those whose commit succeeded)
    // keep. A pair deduplicated against it would resolve differently, or
    // not at all, depending on the node. Forget every signature: the next
    // cycle ships full values, correct everywhere.
    summary_dedup_ = bifrost::Deduplicator(options_.dedup_enabled);
    inverted_dedup_ = bifrost::Deduplicator(options_.dedup_enabled);
    forward_dedup_ = bifrost::Deduplicator(options_.dedup_enabled);
  }
  return report;
}

Result<UpdateReport> DirectLoad::RunCycle(double change_rate, bool vip_only) {
  UpdateReport report;

  // 1. Crawl round. The corpus starts at version 1; the first cycle ships
  //    that initial build, later cycles advance it.
  if (active_version_[0] != 0 || stored_versions_[0] != 0) {
    const double rate =
        change_rate < 0 ? options_.corpus.change_rate : change_rate;
    corpus_->AdvanceVersionTiered(rate, vip_only ? 0.0 : rate);
  }
  report.version = corpus_->version();
  report.docs_changed = corpus_->docs_changed_last_round();

  // 2. Index building (Figure 1's build engine). Each stream is cut and
  //    encoded into wire slice frames exactly as BulkLoader ships them
  //    (slice ids dense from 0 within the version), and each dataset is
  //    freed once it is encoded.
  const uint64_t version = report.version;
  std::vector<bifrost::SliceFrame> summary_slices;
  std::vector<bifrost::SliceFrame> inverted_slices;
  uint64_t next_slice_id = 0;
  {
    webindex::IndexDataset summary = webindex::BuildSummaryIndex(*corpus_);
    const std::vector<bifrost::ShippedPair> shipped =
        summary_dedup_.Process(summary, &report.dedup);
    bifrost::EncodeSliceFrames({summary.type, &shipped, &kNoDeletes}, version,
                               options_.slice_bytes, &next_slice_id,
                               &summary_slices);
  }
  {
    webindex::IndexDataset forward = webindex::BuildForwardIndex(*corpus_);
    webindex::IndexDataset inverted =
        webindex::BuildInvertedIndex(*corpus_, forward);
    const std::vector<bifrost::ShippedPair> shipped =
        inverted_dedup_.Process(inverted, &report.dedup);
    bifrost::EncodeSliceFrames({inverted.type, &shipped, &kNoDeletes},
                               version, options_.slice_bytes, &next_slice_id,
                               &inverted_slices);
    if (options_.ship_forward) {
      // Forward indices travel with the inverted stream (Figure 1's blue
      // arrows) and land at all six data centers.
      std::vector<bifrost::ShippedPair> fwd_shipped =
          forward_dedup_.Process(forward, &report.dedup);
      // Forward and summary indices both key on the URL; prefix the
      // forward entries so the two datasets coexist in one store.
      for (bifrost::ShippedPair& pair : fwd_shipped) {
        pair.key = "fwd:" + pair.key;
      }
      bifrost::EncodeSliceFrames({forward.type, &fwd_shipped, &kNoDeletes},
                                 version, options_.slice_bytes,
                                 &next_slice_id, &inverted_slices);
    }
  }

  // 3. Cross-region delivery with on-arrival ingestion (transmission and
  //    storage are pipelined; each storage node has its own clock). Every
  //    data center stages the version in a bulk session: each delivered
  //    frame is decoded and landed with BulkIngest, exactly as a serving
  //    node lands a kBulkSlice frame, and none of it is readable before the
  //    commit below.
  std::vector<uint64_t> node_clock_before;
  for (auto& cluster : clusters_) {
    for (int n = 0; n < cluster->num_nodes(); ++n) {
      node_clock_before.push_back(cluster->node(n)->clock()->NowMicros());
    }
  }

  Status landed;
  for (size_t dc = 0; landed.ok() && dc < clusters_.size(); ++dc) {
    landed = clusters_[dc]->BulkBegin(version);
  }
  if (landed.ok()) {
    bifrost::wire::SliceHeader header;
    std::vector<qindb::IngestOp> ops;
    report.delivery = delivery_->DeliverVersion(
        summary_slices, inverted_slices,
        [&](int dc, const bifrost::SliceFrame& frame) {
          if (!landed.ok()) return;
          landed = bifrost::wire::DecodeSlicePacket(frame.bytes, &header, &ops);
          if (landed.ok()) {
            landed = clusters_[dc]->BulkIngest(version, ops.data(), ops.size());
          }
          if (landed.ok()) report.pairs_ingested += ops.size();
        });
  }
  if (landed.ok() && !report.delivery.completed) {
    landed = Status::TimedOut("delivery did not finish in time");
  }
  // The version becomes readable one data center at a time (DESIGN.md §5
  // says what a reader sees in between).
  for (size_t dc = 0; landed.ok() && dc < clusters_.size(); ++dc) {
    landed = clusters_[dc]->BulkCommit(version);
  }
  if (!landed.ok()) {
    // An uncommitted version leaves no trace: every staged pair is rolled
    // back. Data centers whose commit already succeeded keep the version.
    for (auto& cluster : clusters_) {
      DL_DISCARD_STATUS("best-effort rollback; the cycle already failed",
                        cluster->BulkAbort(version));
    }
    return landed;
  }

  size_t idx = 0;
  for (auto& cluster : clusters_) {
    for (int n = 0; n < cluster->num_nodes(); ++n, ++idx) {
      const double node_seconds =
          static_cast<double>(cluster->node(n)->clock()->NowMicros() -
                              node_clock_before[idx]) *
          1e-6;
      report.ingest_seconds = std::max(report.ingest_seconds, node_seconds);
    }
  }
  report.update_time_seconds =
      std::max(report.delivery.update_time_seconds, report.ingest_seconds);
  if (report.update_time_seconds > 0) {
    report.throughput_kps =
        static_cast<double>(report.pairs_ingested) /
        report.update_time_seconds;
  }

  // 4. Gray release: probe one data center with realistic queries before
  //    activating the version everywhere (Section 3).
  Result<double> inconsistency =
      ProbeInconsistency(kGrayDc, version, options_.gray_probe_queries);
  if (!inconsistency.ok()) return inconsistency.status();
  report.gray_inconsistency = *inconsistency;
  report.gray_release_passed =
      *inconsistency <= options_.gray_max_inconsistency;
  if (report.gray_release_passed) {
    for (int dc = 0; dc < bifrost::kNumDataCenters; ++dc) {
      active_version_[dc] = version;
    }
  }

  // 5. Version pruning: at most kMaxVersions persist per node.
  for (int dc = 0; dc < bifrost::kNumDataCenters; ++dc) {
    ++stored_versions_[dc];
  }
  if (stored_versions_[0] > kMaxVersions) {
    report.version_pruned = oldest_version_;
    for (auto& cluster : clusters_) {
      Status s = cluster->DropVersion(oldest_version_);
      if (!s.ok()) return s;
    }
    ++oldest_version_;
    for (int dc = 0; dc < bifrost::kNumDataCenters; ++dc) {
      --stored_versions_[dc];
    }
  }
  return report;
}

Result<double> DirectLoad::ProbeInconsistency(int dc, uint64_t version,
                                              int probes) {
  if (probes <= 0) return 0.0;
  const bool stores_summary = dc % bifrost::kDcsPerRegion == 0;
  const auto& docs = corpus_->documents();
  int mismatches = 0;
  for (int i = 0; i < probes; ++i) {
    const webindex::Document& doc = docs[rng_.Uniform(docs.size())];
    // Inverted-index probe: one of the document's terms must list its URL.
    const std::vector<uint32_t> terms = corpus_->TermsOf(doc);
    const uint32_t term = terms[rng_.Uniform(terms.size())];
    Result<mint::MintCluster::ReadResult> postings =
        clusters_[dc]->Get(webindex::TermKey(term), version);
    bool consistent = false;
    if (postings.ok()) {
      std::vector<std::string> urls;
      if (webindex::DecodeUrlList(postings->value, &urls).ok()) {
        consistent = std::find(urls.begin(), urls.end(), doc.url) != urls.end();
      }
    }
    if (!consistent) ++mismatches;
    // Summary probe where this DC stores summaries.
    if (stores_summary) {
      Result<mint::MintCluster::ReadResult> got =
          clusters_[dc]->Get(doc.url, version);
      if (!got.ok() || got->value != corpus_->AbstractOf(doc)) ++mismatches;
    }
  }
  const int checks = probes * (stores_summary ? 2 : 1);
  return static_cast<double>(mismatches) / static_cast<double>(checks);
}

Result<DirectLoad::QueryResult> DirectLoad::Query(int dc, uint32_t term,
                                                  size_t top_k) {
  if (dc < 0 || dc >= bifrost::kNumDataCenters) {
    return Status::InvalidArgument("no such data center");
  }
  const uint64_t version = active_version_[dc];
  if (version == 0) return Status::Unavailable("no active version");

  QueryResult result;
  Result<mint::MintCluster::ReadResult> postings =
      clusters_[dc]->Get(webindex::TermKey(term), version);
  if (!postings.ok()) return postings.status();
  std::vector<std::string> urls;
  Status s = webindex::DecodeUrlList(postings->value, &urls);
  if (!s.ok()) return s;
  if (urls.size() > top_k) urls.resize(top_k);
  result.urls = urls;

  // Abstracts come from the summary-holding data center of this region.
  const int summary_dc = dc - dc % bifrost::kDcsPerRegion;
  for (const std::string& url : result.urls) {
    Result<mint::MintCluster::ReadResult> abstract =
        clusters_[summary_dc]->Get(url, active_version_[summary_dc]);
    result.abstracts.push_back(abstract.ok() ? abstract->value : "");
  }
  return result;
}

Status DirectLoad::Rollback() {
  for (int dc = 0; dc < bifrost::kNumDataCenters; ++dc) {
    if (active_version_[dc] <= oldest_version_) {
      return Status::InvalidArgument("no older version to roll back to");
    }
    --active_version_[dc];
  }
  return Status::OK();
}

}  // namespace directload::core
