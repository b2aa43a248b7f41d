// Tests for index/inverted_index and index/pattern_index.

#include "stburst/index/inverted_index.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "stburst/common/random.h"
#include "stburst/index/pattern_index.h"
#include "index_test_util.h"

namespace stburst {
namespace {

TEST(InvertedIndex, PostingsSortedByScoreDescending) {
  InvertedIndex idx;
  idx.Add(0, 10, 1.0);
  idx.Add(0, 11, 3.0);
  idx.Add(0, 12, 2.0);
  idx.Finalize();
  const auto& p = idx.postings(0);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0].doc, 11u);
  EXPECT_EQ(p[1].doc, 12u);
  EXPECT_EQ(p[2].doc, 10u);
}

TEST(InvertedIndex, TieBreakByDocId) {
  InvertedIndex idx;
  idx.Add(0, 9, 1.0);
  idx.Add(0, 3, 1.0);
  idx.Finalize();
  EXPECT_EQ(idx.postings(0)[0].doc, 3u);
}

TEST(InvertedIndex, RandomAccess) {
  InvertedIndex idx;
  idx.Add(2, 5, 1.5);
  idx.Finalize();
  double score = 0.0;
  EXPECT_TRUE(idx.Score(2, 5, &score));
  EXPECT_DOUBLE_EQ(score, 1.5);
  EXPECT_FALSE(idx.Score(2, 6, &score));
  EXPECT_FALSE(idx.Score(99, 5, &score));
}

TEST(InvertedIndex, UnknownTermEmpty) {
  InvertedIndex idx;
  idx.Finalize();
  EXPECT_TRUE(idx.postings(42).empty());
  EXPECT_EQ(idx.total_postings(), 0u);
}

TEST(InvertedIndex, CountsAndFinalizeIdempotent) {
  InvertedIndex idx;
  idx.Add(0, 1, 1.0);
  idx.Add(1, 2, 2.0);
  idx.Finalize();
  idx.Finalize();
  EXPECT_EQ(idx.total_postings(), 2u);
  EXPECT_EQ(idx.num_terms(), 2u);
  EXPECT_TRUE(idx.finalized());
}

// Freezes `postings` into one list (the shape a maintainer stages).
std::shared_ptr<const TermList> ListOf(std::vector<Posting> postings) {
  return TermList::Freeze(std::move(postings));
}

TEST(InvertedIndex, SuccessorMatchesFromScratch) {
  // Live-feed shape: freeze, then derive the next generation by replacing
  // the terms that changed. The successor must be indistinguishable from an
  // index built in one shot over the same postings.
  InvertedIndex first;
  first.Add(0, 1, 1.0);
  first.Add(0, 2, 5.0);
  first.Add(1, 1, 2.0);
  first.Finalize();

  const std::vector<TermId> terms = {0, 2};
  std::vector<std::shared_ptr<const TermList>> lists;
  lists.push_back(ListOf({{1, 1.0}, {2, 5.0}, {3, 3.0}}));
  lists.push_back(ListOf({{4, 0.5}}));  // a term the first generation lacked
  const InvertedIndex next = first.Successor(terms, std::move(lists));

  InvertedIndex reference;
  reference.Add(0, 1, 1.0);
  reference.Add(0, 2, 5.0);
  reference.Add(0, 3, 3.0);
  reference.Add(1, 1, 2.0);
  reference.Add(2, 4, 0.5);
  reference.Finalize();
  ExpectIdenticalIndexes(next, reference);
  double score = 0.0;
  EXPECT_TRUE(next.Score(0, 3, &score));
  EXPECT_DOUBLE_EQ(score, 3.0);
  // The predecessor is frozen: deriving a successor never edits it.
  EXPECT_EQ(first.postings(0).size(), 2u);
  EXPECT_TRUE(first.postings(2).empty());
  EXPECT_EQ(first.total_postings(), 3u);
}

TEST(InvertedIndex, GenerationBumpsOnEveryFreeze) {
  InvertedIndex idx;
  EXPECT_EQ(idx.generation(), 0u);
  idx.Add(0, 1, 1.0);
  idx.Finalize();
  EXPECT_EQ(idx.generation(), 1u);
  idx.Finalize();  // idempotent: no state change, no bump
  EXPECT_EQ(idx.generation(), 1u);
  const TermId term = 0;
  std::vector<std::shared_ptr<const TermList>> lists;
  lists.push_back(ListOf({{1, 1.0}, {2, 2.0}}));
  const InvertedIndex next = idx.Successor({&term, 1}, std::move(lists));
  EXPECT_EQ(next.generation(), 2u);
  EXPECT_EQ(next.postings(0).size(), 2u);
  EXPECT_EQ(idx.generation(), 1u);
  // A default-constructed index is the empty generation 0.
  EXPECT_EQ(InvertedIndex().Successor({}, {}).generation(), 1u);
}

TEST(InvertedIndex, SuccessorReplacesAndClearsTerms) {
  InvertedIndex idx;
  idx.Add(0, 1, 1.0);
  idx.Add(0, 2, 2.0);
  idx.Add(1, 1, 9.0);
  idx.Finalize();

  // The live maintainer's per-term refresh: re-derive one term, and clear
  // another to empty (a null list).
  const std::vector<TermId> terms = {0, 1};
  std::vector<std::shared_ptr<const TermList>> lists;
  lists.push_back(ListOf({{3, 7.0}}));
  lists.push_back(ListOf({}));
  EXPECT_EQ(lists.back(), nullptr);  // empty lists freeze to null
  const InvertedIndex next = idx.Successor(terms, std::move(lists));

  ASSERT_EQ(next.postings(0).size(), 1u);
  EXPECT_EQ(next.postings(0)[0].doc, 3u);
  EXPECT_TRUE(next.postings(1).empty());
  EXPECT_EQ(next.list(1), nullptr);
  EXPECT_EQ(next.total_postings(), 1u);
  double score = 0.0;
  EXPECT_FALSE(next.Score(0, 1, &score));  // old postings are gone
  EXPECT_TRUE(next.Score(0, 3, &score));
  EXPECT_FALSE(next.Score(1, 1, &score));
}

TEST(InvertedIndex, SuccessorSharesUntouchedLists) {
  // The O(changed) property: a term the successor does not replace keeps
  // the very same frozen storage.
  InvertedIndex idx;
  idx.Add(0, 1, 1.0);
  idx.Add(1, 2, 2.0);
  idx.Finalize();
  const TermId term = 1;
  std::vector<std::shared_ptr<const TermList>> lists;
  lists.push_back(ListOf({{5, 4.0}}));
  const InvertedIndex next = idx.Successor({&term, 1}, std::move(lists));
  EXPECT_EQ(next.list(0), idx.list(0));
  EXPECT_EQ(next.postings(0).data(), idx.postings(0).data());
  EXPECT_NE(next.list(1), idx.list(1));
}

TEST(TermList, FreezeBuildsBothOrders) {
  // Out-of-DocId-order input: sorted access by (score desc, doc asc), random
  // access by binary search over the doc order.
  const auto list = ListOf({{9, 1.0}, {3, 1.0}, {5, 4.0}, {1, 0.5}});
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->size(), 4u);
  const std::vector<Posting>& by_score = list->by_score();
  EXPECT_EQ(by_score[0].doc, 5u);
  EXPECT_EQ(by_score[1].doc, 3u);
  EXPECT_EQ(by_score[2].doc, 9u);
  EXPECT_EQ(by_score[3].doc, 1u);
  EXPECT_EQ(list->min_doc(), 1u);
  double score = 0.0;
  for (const Posting& p : by_score) {
    ASSERT_TRUE(list->Score(p.doc, &score)) << "doc " << p.doc;
    EXPECT_EQ(score, p.score);
  }
  EXPECT_FALSE(list->Score(0, &score));
  EXPECT_FALSE(list->Score(4, &score));
  EXPECT_FALSE(list->Score(10, &score));
}

TEST(TermList, DropBeforeFiltersEvictedDocs) {
  const auto list = ListOf({{1, 4.0}, {2, 3.0}, {5, 2.0}, {7, 6.0}});
  const auto kept = list->DropBefore(/*min_doc=*/3);
  ASSERT_NE(kept, nullptr);
  // Only docs >= 3 survive, still in descending-score order, and random
  // access forgot the evicted docs.
  ASSERT_EQ(kept->size(), 2u);
  EXPECT_EQ(kept->by_score()[0].doc, 7u);
  EXPECT_EQ(kept->by_score()[1].doc, 5u);
  EXPECT_EQ(kept->min_doc(), 5u);
  double score = 0.0;
  EXPECT_FALSE(kept->Score(1, &score));
  EXPECT_FALSE(kept->Score(2, &score));
  ASSERT_TRUE(kept->Score(5, &score));
  EXPECT_DOUBLE_EQ(score, 2.0);
  // The source list is frozen and unchanged.
  EXPECT_EQ(list->size(), 4u);
  // Evicting every doc leaves no list.
  EXPECT_EQ(list->DropBefore(8), nullptr);
}

TEST(PatternIndex, OverlapSemantics) {
  PatternIndex pidx;
  pidx.Add(7, TermPattern{{2, 5, 9}, Interval{10, 20}, 1.5});

  double score = 0.0;
  // Stream and time both inside.
  EXPECT_TRUE(pidx.MaxOverlapScore(7, 5, 15, &score));
  EXPECT_DOUBLE_EQ(score, 1.5);
  // Wrong stream.
  EXPECT_FALSE(pidx.MaxOverlapScore(7, 4, 15, &score));
  // Outside timeframe.
  EXPECT_FALSE(pidx.MaxOverlapScore(7, 5, 21, &score));
  // Unknown term.
  EXPECT_FALSE(pidx.MaxOverlapScore(8, 5, 15, &score));
}

TEST(PatternIndex, MaxScoreAcrossOverlappingPatterns) {
  PatternIndex pidx;
  pidx.Add(0, TermPattern{{1}, Interval{0, 30}, 0.5});
  pidx.Add(0, TermPattern{{1, 2}, Interval{10, 20}, 2.0});
  double score = 0.0;
  ASSERT_TRUE(pidx.MaxOverlapScore(0, 1, 15, &score));
  EXPECT_DOUBLE_EQ(score, 2.0);  // max, not sum or first
  ASSERT_TRUE(pidx.MaxOverlapScore(0, 1, 25, &score));
  EXPECT_DOUBLE_EQ(score, 0.5);  // only the broad pattern covers t=25
}

TEST(PatternIndex, AddersFromMinerOutputs) {
  PatternIndex pidx;
  CombinatorialPattern cp;
  cp.streams = {3, 1};
  cp.timeframe = {5, 8};
  cp.score = 1.0;
  pidx.AddCombinatorial(0, cp);

  SpatiotemporalWindow w;
  w.streams = {2};
  w.timeframe = {1, 2};
  w.score = 0.7;
  pidx.AddWindow(1, w);

  // Streams sorted on insertion, so binary search works.
  double score = 0.0;
  EXPECT_TRUE(pidx.MaxOverlapScore(0, 1, 6, &score));
  EXPECT_TRUE(pidx.MaxOverlapScore(0, 3, 6, &score));
  EXPECT_TRUE(pidx.MaxOverlapScore(1, 2, 1, &score));
  EXPECT_EQ(pidx.total_patterns(), 2u);
  EXPECT_EQ(pidx.num_terms_with_patterns(), 2u);
}

}  // namespace
}  // namespace stburst
