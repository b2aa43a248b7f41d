#include "stburst/index/search_engine.h"

#include <algorithm>
#include <cmath>

namespace stburst {

double Relevance(double term_frequency) { return std::log(term_frequency + 1.0); }

BurstySearchEngine::BurstySearchEngine(const Collection* collection,
                                       SearchEngineOptions options)
    : collection_(collection), options_(options) {}

BurstySearchEngine BurstySearchEngine::Build(const Collection& collection,
                                             const PatternIndex& patterns,
                                             SearchEngineOptions options) {
  BurstySearchEngine engine(&collection, options);

  std::vector<TermId> distinct;
  for (const Document& doc : collection.documents()) {
    // Distinct terms of the document with their frequencies.
    distinct = doc.tokens;
    std::sort(distinct.begin(), distinct.end());
    for (size_t i = 0; i < distinct.size();) {
      size_t j = i;
      while (j < distinct.size() && distinct[j] == distinct[i]) ++j;
      TermId term = distinct[i];
      double burst_score;
      if (patterns.MaxOverlapScore(term, doc.stream, doc.time, &burst_score)) {
        double entry = Relevance(static_cast<double>(j - i)) * burst_score;
        if (entry > 0.0) engine.index_.Add(term, doc.id, entry);
      }
      i = j;
    }
  }
  engine.index_.Finalize();
  return engine;
}

void AppendDocPostings(const Collection& collection, DocId first,
                       std::vector<std::vector<DocCount>>* lists) {
  std::vector<TermId> distinct;
  const DocId base = collection.doc_id_base();
  for (size_t i = static_cast<size_t>(first - base);
       i < collection.num_documents(); ++i) {
    const Document& doc = collection.documents()[i];
    distinct = doc.tokens;
    std::sort(distinct.begin(), distinct.end());
    for (size_t a = 0; a < distinct.size();) {
      size_t b = a;
      while (b < distinct.size() && distinct[b] == distinct[a]) ++b;
      const TermId term = distinct[a];
      if (term >= lists->size()) lists->resize(term + 1);
      (*lists)[term].push_back(
          DocCount{doc.id, static_cast<uint32_t>(b - a)});
      a = b;
    }
  }
}

void ScoreDocPostings(const Collection& collection,
                      std::span<const DocCount> docs,
                      std::span<const TermPattern> patterns,
                      std::vector<Posting>* out) {
  if (patterns.empty()) return;  // no pattern can overlap: no postings
  // Entries are in DocId order, so the documents of one (stream, time) cell
  // that carry the term are usually adjacent: reuse the last cell's overlap
  // score.
  StreamId cell_stream = kInvalidStream;
  Timestamp cell_time = 0;
  bool cell_hit = false;
  double burst_score = 0.0;
  for (const DocCount& entry : docs) {
    const Document& doc = collection.document(entry.doc);
    if (doc.stream != cell_stream || doc.time != cell_time) {
      cell_stream = doc.stream;
      cell_time = doc.time;
      cell_hit = MaxOverlapScore(patterns, doc.stream, doc.time, &burst_score);
    }
    if (!cell_hit) continue;
    const double score =
        Relevance(static_cast<double>(entry.count)) * burst_score;
    if (score > 0.0) out->push_back(Posting{entry.doc, score});
  }
}

TopKResult BurstySearchEngine::Search(const std::string& query, size_t k) const {
  return Search(tokenizer_.TokenizeFrozen(query, collection_->vocabulary()), k);
}

TopKResult BurstySearchEngine::Search(const std::vector<TermId>& query,
                                      size_t k) const {
  if (options_.use_threshold_algorithm) {
    return ThresholdTopK(index_, query, k);
  }
  return ExhaustiveTopK(index_, query, k);
}

}  // namespace stburst
