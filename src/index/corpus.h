#ifndef DIRECTLOAD_INDEX_CORPUS_H_
#define DIRECTLOAD_INDEX_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace directload::webindex {

/// Parameters of the synthetic web corpus. Defaults follow the paper's
/// workload description scaled to laptop size: 20-byte URL keys, ~20 KB
/// summary values (Section 4.1), and ≈70 % of documents unchanged between
/// consecutive crawl rounds (Section 2.2), i.e. change_rate ≈ 0.3.
struct CorpusOptions {
  uint64_t num_docs = 2000;
  uint32_t vocab_size = 20000;
  uint32_t terms_per_doc = 50;
  double change_rate = 0.3;     // Fraction of docs modified per crawl round.
  double vip_fraction = 0.2;    // High-quality tier (serves most queries).
  uint32_t abstract_bytes = 20 << 10;
  uint64_t seed = 42;
};

/// One crawled document. Content (terms and abstract) is a deterministic
/// function of `content_seed`, so two documents with equal seeds have
/// byte-identical index values — which is exactly what Bifrost's signature
/// dedup detects.
struct Document {
  uint64_t doc_id = 0;
  std::string url;  // 20 bytes.
  bool vip = false;
  uint64_t content_seed = 0;
  uint64_t last_modified_version = 0;
};

/// A synthetic evolving web: each AdvanceVersion() simulates one crawl
/// round, re-seeding the content of a `change_rate` fraction of documents.
class Corpus {
 public:
  explicit Corpus(const CorpusOptions& options);

  /// Simulates a crawl round; returns the new version number. The first
  /// version is 1 (set by the constructor).
  uint64_t AdvanceVersion();

  /// Like AdvanceVersion but with an explicit change rate for this round
  /// (drives the dedup-ratio sweeps of Figure 9).
  uint64_t AdvanceVersionWithChangeRate(double change_rate);

  /// Tiered crawl round: VIP documents (high-quality pages serving >80% of
  /// queries, Section 1.1.1) and non-VIP documents mutate at different
  /// rates — "the VIP index data are updated more frequently" (Section 3).
  /// A VIP-only round passes nonvip_change_rate = 0.
  uint64_t AdvanceVersionTiered(double vip_change_rate,
                                double nonvip_change_rate);

  uint64_t version() const { return version_; }
  const CorpusOptions& options() const { return options_; }
  const std::vector<Document>& documents() const { return docs_; }
  uint64_t docs_changed_last_round() const { return changed_last_round_; }

  /// Sorted unique term ids of the document's current content.
  std::vector<uint32_t> TermsOf(const Document& doc) const;

  /// The document's summary abstract (value of the summary index).
  std::string AbstractOf(const Document& doc) const;

 private:
  CorpusOptions options_;
  std::vector<Document> docs_;
  Random rng_;
  uint64_t version_ = 0;
  uint64_t changed_last_round_ = 0;
};

}  // namespace directload::webindex

#endif  // DIRECTLOAD_INDEX_CORPUS_H_
