// Fagin's Threshold Algorithm (TA) for top-k aggregation over score-sorted
// posting lists (paper §5, reference [6]).
//
// The aggregate is the sum of per-term scores; documents missing from a
// term's list contribute 0 for that term. TA scans the query terms' lists
// in parallel depth order, random-accesses each newly seen document's
// remaining scores, and stops as soon as the k-th best complete score
// exceeds the threshold (the sum of the scores at the current scan depths).
// The comparison is strict so that an unseen document tied at the k-th score
// is still read: ties resolve by ascending DocId, exactly as in an
// exhaustive merge.

#ifndef STBURST_INDEX_THRESHOLD_ALGORITHM_H_
#define STBURST_INDEX_THRESHOLD_ALGORITHM_H_

#include <vector>

#include "stburst/index/inverted_index.h"
#include "stburst/stream/types.h"

namespace stburst {

/// A retrieved document with its aggregate score.
struct ScoredDoc {
  DocId doc = kInvalidDoc;
  double score = 0.0;

  friend bool operator==(const ScoredDoc& a, const ScoredDoc& b) {
    return a.doc == b.doc && a.score == b.score;
  }
};

/// Top-k retrieval outcome plus the access counts that make TA's early
/// termination observable in tests and benchmarks.
struct TopKResult {
  std::vector<ScoredDoc> docs;  // descending score, ties by ascending id
  size_t sorted_accesses = 0;
  size_t random_accesses = 0;
  bool early_terminated = false;  // stopped before exhausting the lists
  /// InvertedIndex::generation() at computation time. A cached result is
  /// stale — and must be recomputed — once it differs from the generation
  /// currently served (a successor index replaced the one it came from).
  uint64_t generation = 0;
};

/// Runs TA for `query` (a set of term ids; duplicates are ignored) over a
/// finalized index. Returns at most k documents with strictly positive
/// aggregate score.
TopKResult ThresholdTopK(const InvertedIndex& index,
                         const std::vector<TermId>& query, size_t k);

/// Reference implementation that exhaustively merges the full posting lists.
/// Identical output to ThresholdTopK; used for differential testing.
TopKResult ExhaustiveTopK(const InvertedIndex& index,
                          const std::vector<TermId>& query, size_t k);

/// One query term's posting list as served by a vocabulary shard: the
/// shard's index (postings hold shard-local DocIds) plus the translation
/// back to global ids. `doc_map` is ascending, indexed by
/// local_id - local_base: (*doc_map)[p.doc - local_base] is the global id
/// of local posting doc p.doc. The coordinator (ShardedRuntime::Search)
/// builds one per deduped query term from the owning shard's published
/// snapshot.
struct ShardedTermList {
  TermId term = kInvalidTerm;
  const InvertedIndex* index = nullptr;
  const std::vector<DocId>* doc_map = nullptr;
  DocId local_base = 0;
};

/// Scatter-gather TA over per-shard posting lists: the same threshold loop
/// as ThresholdTopK, with each sorted access translated shard-local →
/// global on the fly and each random access translated global → shard-local
/// (binary search on the ascending doc map; a document absent from a term's
/// shard scores 0 there, exactly as a document absent from a term's list
/// does unsharded).
///
/// Composition argument: shard postings are sorted by (score desc, DocId
/// asc) and the local → global translation is strictly increasing, so each
/// translated list is element-for-element the unsharded list of that term;
/// the frontier — and therefore the global threshold, the termination
/// point, and every access count — is bit-identical to ThresholdTopK over
/// the unsharded index (the per-shard thresholds sum to the global one in
/// list order). `lists` must be deduped and sorted by term, the order
/// DedupeQuery produces. `generation` stamps the result (the coordinator's
/// view generation; shard generations are not individually meaningful to a
/// caller holding a composed view).
TopKResult ShardedThresholdTopK(const std::vector<ShardedTermList>& lists,
                                size_t k, uint64_t generation);

}  // namespace stburst

#endif  // STBURST_INDEX_THRESHOLD_ALGORITHM_H_
