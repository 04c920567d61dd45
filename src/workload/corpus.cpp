#include "workload/corpus.h"

#include <stdexcept>

namespace at::workload {

CorpusGen::CorpusGen(CorpusConfig config)
    : config_(config),
      background_(config.vocab_size, config.background_skew),
      topic_rank_(config.topic_vocab, config.topic_term_skew) {
  if (config_.num_topics == 0 || config_.vocab_size == 0)
    throw std::invalid_argument("CorpusGen: empty config");
  if (config_.topic_vocab > config_.vocab_size)
    throw std::invalid_argument("CorpusGen: topic_vocab > vocab_size");
  common::Rng rng(config_.seed);
  topic_terms_.resize(config_.num_topics);
  for (auto& terms : topic_terms_) {
    // A topic's characteristic terms: distinct draws across the vocabulary
    // (biased toward the mid/low-frequency region by skipping the most
    // common background terms, like real topical words).
    terms.reserve(config_.topic_vocab);
    std::vector<bool> used(config_.vocab_size, false);
    while (terms.size() < config_.topic_vocab) {
      const std::size_t offset = config_.vocab_size / 20;  // skip stopwords
      const auto t = static_cast<std::uint32_t>(
          offset + rng.uniform_index(config_.vocab_size - offset));
      if (used[t]) continue;
      used[t] = true;
      terms.push_back(t);
    }
  }
}

synopsis::SparseVector CorpusGen::make_doc(std::size_t topic,
                                           common::Rng& rng) const {
  const std::size_t len = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(config_.doc_len_min),
      static_cast<std::int64_t>(config_.doc_len_max)));
  synopsis::SparseVector counts;
  counts.reserve(len);
  for (std::size_t k = 0; k < len; ++k) {
    std::uint32_t term;
    if (rng.uniform() < config_.topic_mix) {
      term = topic_terms_[topic][topic_rank_(rng)];
    } else {
      term = static_cast<std::uint32_t>(background_(rng));
    }
    counts.emplace_back(term, 1.0);
  }
  synopsis::normalize(counts);
  return counts;
}

synopsis::SparseVector CorpusGen::sample_doc(common::Rng& rng) const {
  return make_doc(rng.uniform_index(config_.num_topics), rng);
}

search::SearchRequest CorpusGen::sample_query(common::Rng& rng) const {
  const std::size_t topic = rng.uniform_index(config_.num_topics);
  const std::size_t nterms = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(config_.query_terms_min),
      static_cast<std::int64_t>(config_.query_terms_max)));
  search::SearchRequest req;
  req.terms.reserve(nterms);
  while (req.terms.size() < nterms) {
    const auto term = topic_terms_[topic][topic_rank_(rng)];
    bool dup = false;
    for (auto t : req.terms) dup = dup || (t == term);
    if (!dup) req.terms.push_back(term);
  }
  return req;
}

SearchWorkload CorpusGen::generate(std::size_t num_queries) const {
  SearchWorkload out;
  out.shards.reserve(config_.num_components);
  out.queries = generate(num_queries, [&out](synopsis::SparseRows shard) {
    out.shards.push_back(std::move(shard));
  });
  return out;
}

std::vector<search::SearchRequest> CorpusGen::generate(
    std::size_t num_queries,
    const std::function<void(synopsis::SparseRows)>& on_shard) const {
  common::Rng rng(config_.seed ^ 0xc0ffeeULL);
  for (std::size_t c = 0; c < config_.num_components; ++c) {
    synopsis::SparseRows shard(config_.vocab_size);
    for (std::size_t d = 0; d < config_.docs_per_component; ++d) {
      const std::size_t topic = rng.uniform_index(config_.num_topics);
      shard.add_row(make_doc(topic, rng));
    }
    on_shard(std::move(shard));
  }
  std::vector<search::SearchRequest> queries;
  queries.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    queries.push_back(sample_query(rng));
  }
  return queries;
}

}  // namespace at::workload
