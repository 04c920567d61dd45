// Synthetic clustered web-page corpus and query workload (Sogou stand-in).
//
// Documents follow a simple topic model: each page has one main topic; its
// tokens come from the topic's term distribution with probability
// `topic_mix`, otherwise from a background Zipf over the whole vocabulary.
// Queries pick a topic and sample a few of its characteristic terms, so
// per query there is a well-defined set of strongly matching pages — the
// skewed score distribution that makes top-k retrieval (and the paper's
// group-ranking argument) meaningful.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "services/search/component.h"
#include "synopsis/sparse_rows.h"

namespace at::workload {

struct CorpusConfig {
  std::size_t num_components = 8;
  std::size_t docs_per_component = 400;
  std::size_t vocab_size = 4000;
  std::size_t num_topics = 32;
  std::size_t topic_vocab = 120;   // characteristic terms per topic
  std::size_t doc_len_min = 40;
  std::size_t doc_len_max = 160;
  double topic_mix = 0.7;          // fraction of tokens from the main topic
  double background_skew = 1.05;   // Zipf exponent of the background dist
  double topic_term_skew = 0.9;    // Zipf exponent within a topic's terms
  std::size_t query_terms_min = 1;
  std::size_t query_terms_max = 4;
  std::uint64_t seed = 11;
};

struct SearchWorkload {
  std::vector<synopsis::SparseRows> shards;  // one per component
  std::vector<search::SearchRequest> queries;
};

class CorpusGen {
 public:
  explicit CorpusGen(CorpusConfig config);

  /// Generates the shards plus `num_queries` topic-focused queries.
  SearchWorkload generate(std::size_t num_queries) const;

  /// The same corpus, streamed: hands each shard to `on_shard` as soon as
  /// it is complete, in shard order, then returns the queries. Shards and
  /// queries are identical to generate(num_queries)'s, which wraps this.
  std::vector<search::SearchRequest> generate(
      std::size_t num_queries,
      const std::function<void(synopsis::SparseRows)>& on_shard) const;

  /// One additional document (for update batches).
  synopsis::SparseVector sample_doc(common::Rng& rng) const;

  /// One query (topic-focused), for streaming query generation.
  search::SearchRequest sample_query(common::Rng& rng) const;

  const CorpusConfig& config() const { return config_; }

 private:
  synopsis::SparseVector make_doc(std::size_t topic, common::Rng& rng) const;

  CorpusConfig config_;
  common::ZipfDistribution background_;
  common::ZipfDistribution topic_rank_;  // rank within a topic's vocab
  std::vector<std::vector<std::uint32_t>> topic_terms_;
};

}  // namespace at::workload
