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

/// A document's (stream, time) cell: the two Document fields search
/// scoring reads.
struct DocCell {
  StreamId stream = kInvalidStream;
  Timestamp time = 0;
};

/// The cells of a collection's retained documents, indexed by
/// `doc - base`: 8 bytes per document instead of the 48-byte Document, so
/// ScoreDocPostings' per-entry lookups walk a compact array forward (entries
/// come in DocId order) instead of chasing Documents. Holds no state across
/// collection edits: build it again after any Append or eviction.
struct DocCellTable {
  DocId base = 0;
  std::vector<DocCell> cells;

  /// One sequential pass over `collection`'s retained documents.
  static DocCellTable Build(const Collection& collection);
};

/// One term's patterns indexed by stream, the lookup structure of
/// ScoreDocPostings: for every stream, the (timeframe, score) of each
/// pattern listing it, in pattern order, plus the hull of those timeframes
/// as a reject test. A (stream, time) lookup scans that stream's entries
/// only — the same patterns, in the same order, as MaxOverlapScore's scan
/// of the whole list keeps, so the max is bit-identical. Reusable scratch:
/// Reset replaces the contents without freeing memory, so one per worker
/// serves every term that worker scores.
class StreamPatternIndex {
 public:
  /// Indexes `patterns`, replacing the previous contents. Stream lists need
  /// not be sorted (a stream listed twice in one pattern adds a duplicate
  /// entry, which leaves the max unchanged); patterns with an invalid
  /// timeframe overlap nothing and are dropped. O(total stream-list
  /// length), plus a one-time growth to the largest stream id seen.
  void Reset(std::span<const CombinatorialPattern> patterns);
  void Reset(std::span<const SpatiotemporalWindow> patterns);

  /// True when no indexed pattern can overlap any document.
  bool empty() const { return entries_.empty(); }

  /// MaxOverlapScore over the indexed patterns: the maximum score among
  /// those containing `stream` and `time`; false when none does.
  bool MaxOverlapScore(StreamId stream, Timestamp time, double* score) const;

 private:
  struct Entry {
    Timestamp start;
    Timestamp end;
    double score;
  };
  // A stream's entries are entries_[begin, end), its timeframe hull
  // [lo, hi]; valid only while stamp == stamp_ (a Reset invalidates every
  // slot by bumping stamp_ instead of clearing the array).
  struct StreamSlot {
    uint32_t stamp = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
    Timestamp lo = 0;
    Timestamp hi = 0;
  };

  template <typename Pattern>
  void ResetImpl(std::span<const Pattern> patterns);

  std::vector<StreamSlot> slots_;  // indexed by StreamId
  std::vector<StreamId> touched_;  // streams with a slot this stamp
  std::vector<Entry> entries_;
  uint32_t stamp_ = 0;
};

/// Scores one term's doc-level postings against the term's patterns,
/// indexed in `patterns`: each entry scores relevance(count) × the max
/// score of the patterns its document's (stream, time) cell overlaps, and
/// positive entries are appended to `out` in the list's DocId order.
/// Entries below `cells.base` (an evicted prefix not yet trimmed) are
/// skipped; every other entry must name a document of `cells`. The
/// postings are identical to the ones BurstySearchEngine::Build derives
/// doc-major from the same pattern state (tested). Never touches a
/// Document. O(log |docs|) for the prefix skip, then O(|docs|) table reads
/// plus one scan of a single stream's entries per run of entries sharing a
/// cell; nothing when `patterns` is empty.
void ScoreDocPostings(const DocCellTable& cells, std::span<const DocCount> docs,
                      const StreamPatternIndex& patterns,
                      std::vector<Posting>* out);

}  // namespace stburst

#endif  // STBURST_INDEX_SEARCH_ENGINE_H_
