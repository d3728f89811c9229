#include "index/corpus.h"

#include <algorithm>
#include <cstdio>
#include <set>

namespace directload::webindex {

namespace {

/// Term-popularity skew of the Zipfian term draw.
constexpr double kZipfTheta = 0.8;

}  // namespace

Corpus::Corpus(const CorpusOptions& options)
    : options_(options), rng_(options.seed) {
  docs_.reserve(options_.num_docs);
  for (uint64_t i = 0; i < options_.num_docs; ++i) {
    Document doc;
    doc.doc_id = i;
    char url[32];
    // 20-byte keys, as in the paper's Section 4.1 workload.
    std::snprintf(url, sizeof(url), "url:%016llu",
                  static_cast<unsigned long long>(i));
    doc.url.assign(url, 20);
    doc.vip = rng_.Bernoulli(options_.vip_fraction);
    doc.content_seed = rng_.Next();
    doc.last_modified_version = 1;
    docs_.push_back(std::move(doc));
  }
  version_ = 1;
  changed_last_round_ = options_.num_docs;
}

uint64_t Corpus::AdvanceVersion() {
  return AdvanceVersionWithChangeRate(options_.change_rate);
}

uint64_t Corpus::AdvanceVersionWithChangeRate(double change_rate) {
  return AdvanceVersionTiered(change_rate, change_rate);
}

uint64_t Corpus::AdvanceVersionTiered(double vip_change_rate,
                                      double nonvip_change_rate) {
  ++version_;
  changed_last_round_ = 0;
  for (Document& doc : docs_) {
    const double rate = doc.vip ? vip_change_rate : nonvip_change_rate;
    if (rng_.Bernoulli(rate)) {
      doc.content_seed = rng_.Next();
      doc.last_modified_version = version_;
      ++changed_last_round_;
    }
  }
  return version_;
}

std::vector<uint32_t> Corpus::TermsOf(const Document& doc) const {
  // Deterministic per content seed: popular terms via a Zipfian draw.
  ZipfianGenerator zipf(options_.vocab_size, kZipfTheta,
                        doc.content_seed);
  std::set<uint32_t> terms;
  // Draw until we have the target count (duplicates collapse).
  Random extra(doc.content_seed ^ 0x7e57);
  while (terms.size() < options_.terms_per_doc) {
    if (extra.Bernoulli(0.8)) {
      terms.insert(static_cast<uint32_t>(zipf.Next()));
    } else {
      terms.insert(static_cast<uint32_t>(extra.Uniform(options_.vocab_size)));
    }
  }
  return std::vector<uint32_t>(terms.begin(), terms.end());
}

std::string Corpus::AbstractOf(const Document& doc) const {
  Random content(doc.content_seed);
  // Mildly variable sizes around the configured mean.
  const uint32_t size = options_.abstract_bytes / 2 +
                        static_cast<uint32_t>(
                            content.Uniform(options_.abstract_bytes));
  return content.NextString(size);
}

}  // namespace directload::webindex
