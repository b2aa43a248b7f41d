// The bursty-document search engine (paper §5).
//
// score(q, d) = sum over query terms t of relevance(d,t) * burstiness(d,t),
// with relevance(d,t) = log(freq(t,d) + 1) (the paper's best-performing
// choice) and burstiness(d,t) = the maximum score among the term's mined
// patterns that the document overlaps (ditto). Documents overlapping no
// pattern for a term contribute nothing for that term (the paper's -inf
// convention, applied per term so multi-term queries degrade gracefully).
//
// The engine is pattern-type agnostic: build it with STComb patterns for a
// combinatorial instance, STLocal windows for a regional instance, or
// temporal-only intervals for the TB baseline (tb_engine.h).

#ifndef STBURST_INDEX_SEARCH_ENGINE_H_
#define STBURST_INDEX_SEARCH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stburst/index/inverted_index.h"
#include "stburst/index/pattern_index.h"
#include "stburst/index/threshold_algorithm.h"
#include "stburst/stream/collection.h"
#include "stburst/stream/tokenizer.h"

namespace stburst {

struct SearchEngineOptions {
  /// Use the Threshold Algorithm; otherwise exhaustively merge postings
  /// (for differential testing and small corpora).
  bool use_threshold_algorithm = true;
};

/// Immutable once built. Holds a score-sorted inverted index whose per-term
/// entries are relevance * burstiness products, so top-k retrieval is a TA
/// run away.
class BurstySearchEngine {
 public:
  /// Indexes every document of `collection` against `patterns`. Documents
  /// that overlap no pattern for a term get no posting for that term.
  static BurstySearchEngine Build(const Collection& collection,
                                  const PatternIndex& patterns,
                                  SearchEngineOptions options = {});

  /// Top-k for a raw query string (tokenized against the collection's
  /// frozen vocabulary; unknown words are dropped).
  TopKResult Search(const std::string& query, size_t k) const;

  /// Top-k for pre-resolved term ids.
  TopKResult Search(const std::vector<TermId>& query, size_t k) const;

  const InvertedIndex& index() const { return index_; }

 private:
  BurstySearchEngine(const Collection* collection, SearchEngineOptions options);

  const Collection* collection_;  // not owned; must outlive the engine
  SearchEngineOptions options_;
  Tokenizer tokenizer_;
  InvertedIndex index_;
};

/// relevance(d, t) of Eq. 10 for a raw term frequency.
double Relevance(double term_frequency);

/// One document's multiplicity of a term: an entry of a term's doc-level
/// posting list, which ScoreDocPostings scores.
struct DocCount {
  DocId doc = kInvalidDoc;
  uint32_t count = 0;
};

/// Appends the documents of `collection` with ids >= `first` to per-term
/// doc-level posting lists (indexed by TermId, grown as needed): one
/// (doc, count) entry per distinct term of each document, in DocId order. A
/// live maintainer (FeedRuntime's search serving) calls this with the ids a
/// tick appended; `first` = doc_id_base() builds the lists from scratch
/// over empty `lists`. O(tokens of the documents, log-factor per document).
void AppendDocPostings(const Collection& collection, DocId first,
                       std::vector<std::vector<DocCount>>* lists);

/// Scores one term's doc-level postings against the term's patterns: each
/// entry scores relevance(count) × the max score of the patterns its
/// document's (stream, time) overlaps, and positive entries are appended to
/// `out` in the list's DocId order. Every entry must name a retained
/// document of `collection`. The postings are identical to the ones
/// BurstySearchEngine::Build derives doc-major from the same pattern state
/// (tested). O(|docs|) plus one pattern scan per run of entries sharing a
/// (stream, time) cell; nothing when `patterns` is empty.
void ScoreDocPostings(const Collection& collection,
                      std::span<const DocCount> docs,
                      std::span<const TermPattern> patterns,
                      std::vector<Posting>* out);

}  // namespace stburst

#endif  // STBURST_INDEX_SEARCH_ENGINE_H_
