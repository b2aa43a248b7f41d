// Score-sorted inverted index (paper §5): term -> documents ranked by their
// per-term score, supporting both the sorted access the Threshold Algorithm
// scans and the random access it probes.
//
// Each term's postings live in one immutable TermList, held by
// shared_ptr<const TermList> and frozen when built. An index is a vector of
// those pointers, so a live maintainer (FeedRuntime's search read plane)
// builds the next generation with Successor(): O(V) pointer copies plus the
// lists it actually re-scored. Every list it did not touch is shared, storage
// and all, with the generation before — readers holding either generation
// see the same frozen bytes, and freeing a superseded generation frees only
// the lists it replaced.

#ifndef STBURST_INDEX_INVERTED_INDEX_H_
#define STBURST_INDEX_INVERTED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "stburst/stream/types.h"

namespace stburst {

/// One entry of a term's posting list.
struct Posting {
  DocId doc = kInvalidDoc;
  double score = 0.0;
};

/// One term's frozen posting list: the postings in (score desc, DocId asc)
/// order for TA's sorted access, plus a DocId-sorted copy that random access
/// binary-searches. Immutable after Freeze; shared between index
/// generations, so concurrent readers need no synchronization.
class TermList {
 public:
  /// Freezes `postings` (any order; each doc at most once). Null for an
  /// empty list — an index stores absent terms as null. O(n log n); input
  /// already in DocId order (what every scorer in the library produces)
  /// skips the second sort.
  static std::shared_ptr<const TermList> Freeze(std::vector<Posting> postings);

  /// A new list without the postings of docs < `min_doc`; null when none
  /// survive. How a maintainer drops evicted documents from a term it is
  /// not re-scoring. O(size), no re-sort.
  std::shared_ptr<const TermList> DropBefore(DocId min_doc) const;

  /// Postings by descending score, ties by ascending DocId.
  const std::vector<Posting>& by_score() const { return by_score_; }

  /// Random access: the score of `doc`; false if absent. O(log n).
  bool Score(DocId doc, double* score) const;

  /// Smallest DocId in the list (lists are never empty).
  DocId min_doc() const { return docs_.front(); }
  size_t size() const { return by_score_.size(); }

  TermList(const TermList&) = delete;
  TermList& operator=(const TermList&) = delete;

 private:
  // Constructible only through Freeze/DropBefore, which keep lists
  // non-empty and both orders in sync; the key lets them use make_shared.
  struct Key {};

 public:
  explicit TermList(Key) {}

 private:
  std::vector<Posting> by_score_;
  std::vector<DocId> docs_;         // ascending
  std::vector<double> doc_scores_;  // parallel to docs_
};

/// Build-once inverted index with structural-sharing successors. Either
/// Add() every posting and Finalize() once (the one-shot build
/// BurstySearchEngine uses), or derive a finalized index from another with
/// Successor() (the per-tick path of a live maintainer). Queries require a
/// finalized index.
///
/// Thread-safety: a finalized index is never mutated, so queries are safe
/// from any number of threads; Add/Finalize are single-threaded build steps.
class InvertedIndex {
 public:
  /// Records that `doc` scores `score` for `term`. Only before Finalize();
  /// each (term, doc) pair at most once. Amortized O(1).
  void Add(TermId term, DocId doc, double score);

  /// Freezes every term's postings into its TermList and bumps
  /// generation() to 1. Idempotent.
  void Finalize();

  /// The next generation: shares every TermList of this index except
  /// `terms[i]`, whose list becomes `lists[i]` (null = no postings; the term
  /// range grows as needed). Finalized, at generation() + 1. This index must
  /// hold no unfrozen Add()s; a default-constructed index is the empty
  /// generation 0, so its successor is a first generation. O(V + |terms|).
  InvertedIndex Successor(
      std::span<const TermId> terms,
      std::vector<std::shared_ptr<const TermList>> lists) const;

  /// Monotone generation counter: 1 after Finalize(), +1 per Successor().
  /// Consumers cache it alongside derived results (top-k lists, pattern
  /// joins) and recompute when it moved.
  uint64_t generation() const { return generation_; }

  /// The frozen list of a term; null if it has no postings. Requires a
  /// finalized index.
  const TermList* list(TermId term) const;

  /// Sorted postings of a term (empty if none). Requires a finalized index.
  const std::vector<Posting>& postings(TermId term) const;

  /// Random access: the score of `doc` for `term`; false if absent.
  /// Requires a finalized index.
  bool Score(TermId term, DocId doc, double* score) const;

  size_t num_terms() const { return lists_.size(); }
  size_t total_postings() const { return total_postings_; }
  bool finalized() const { return finalized_; }

 private:
  bool finalized_ = false;
  uint64_t generation_ = 0;
  size_t total_postings_ = 0;
  std::vector<std::vector<Posting>> pending_;  // Add()s until Finalize()
  std::vector<std::shared_ptr<const TermList>> lists_;  // indexed by TermId
  static const std::vector<Posting> kEmpty;
};

}  // namespace stburst

#endif  // STBURST_INDEX_INVERTED_INDEX_H_
