// Tests for the Threshold Algorithm (index/threshold_algorithm).

#include "stburst/index/threshold_algorithm.h"

#include <gtest/gtest.h>

#include "stburst/common/random.h"

namespace stburst {
namespace {

InvertedIndex SmallIndex() {
  InvertedIndex idx;
  // term 0: d1=5, d2=3, d3=1 ; term 1: d2=4, d4=2
  idx.Add(0, 1, 5.0);
  idx.Add(0, 2, 3.0);
  idx.Add(0, 3, 1.0);
  idx.Add(1, 2, 4.0);
  idx.Add(1, 4, 2.0);
  idx.Finalize();
  return idx;
}

TEST(ThresholdTopK, SingleTermTopK) {
  InvertedIndex idx = SmallIndex();
  auto result = ThresholdTopK(idx, {0}, 2);
  ASSERT_EQ(result.docs.size(), 2u);
  EXPECT_EQ(result.docs[0].doc, 1u);
  EXPECT_DOUBLE_EQ(result.docs[0].score, 5.0);
  EXPECT_EQ(result.docs[1].doc, 2u);
}

TEST(ThresholdTopK, MultiTermAggregation) {
  InvertedIndex idx = SmallIndex();
  auto result = ThresholdTopK(idx, {0, 1}, 3);
  ASSERT_EQ(result.docs.size(), 3u);
  // d2 = 3 + 4 = 7 beats d1 = 5.
  EXPECT_EQ(result.docs[0].doc, 2u);
  EXPECT_DOUBLE_EQ(result.docs[0].score, 7.0);
  EXPECT_EQ(result.docs[1].doc, 1u);
  EXPECT_EQ(result.docs[2].doc, 4u);
}

TEST(ThresholdTopK, DuplicateQueryTermsCollapse) {
  InvertedIndex idx = SmallIndex();
  auto dup = ThresholdTopK(idx, {0, 0, 0}, 2);
  auto single = ThresholdTopK(idx, {0}, 2);
  ASSERT_EQ(dup.docs.size(), single.docs.size());
  for (size_t i = 0; i < dup.docs.size(); ++i) {
    EXPECT_EQ(dup.docs[i], single.docs[i]);
  }
}

TEST(ThresholdTopK, EmptyQueryAndZeroK) {
  InvertedIndex idx = SmallIndex();
  EXPECT_TRUE(ThresholdTopK(idx, {}, 5).docs.empty());
  EXPECT_TRUE(ThresholdTopK(idx, {0}, 0).docs.empty());
  EXPECT_TRUE(ThresholdTopK(idx, {99}, 5).docs.empty());
}

TEST(ThresholdTopK, KLargerThanCorpus) {
  InvertedIndex idx = SmallIndex();
  auto result = ThresholdTopK(idx, {0, 1}, 100);
  EXPECT_EQ(result.docs.size(), 4u);  // only 4 docs have positive scores
}

TEST(ThresholdTopK, EarlyTerminationOnLongLists) {
  // 1000 docs in each of two lists; top doc dominates, so TA must stop well
  // before exhausting the lists.
  InvertedIndex idx;
  for (DocId d = 0; d < 1000; ++d) {
    idx.Add(0, d, d == 0 ? 1000.0 : 1.0 / (1.0 + d));
    idx.Add(1, d, d == 0 ? 1000.0 : 1.0 / (1.0 + d));
  }
  idx.Finalize();
  auto result = ThresholdTopK(idx, {0, 1}, 1);
  ASSERT_EQ(result.docs.size(), 1u);
  EXPECT_EQ(result.docs[0].doc, 0u);
  EXPECT_TRUE(result.early_terminated);
  EXPECT_LT(result.sorted_accesses, 100u);
}

TEST(ThresholdTopK, MatchesExhaustiveOnRandomIndexes) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    InvertedIndex idx;
    size_t terms = 1 + rng.NextUint64(4);
    for (TermId t = 0; t < terms; ++t) {
      // Each (term, doc) pair appears at most once, like the real engine.
      for (DocId d = 0; d < 100; ++d) {
        if (rng.Bernoulli(0.4)) idx.Add(t, d, rng.Uniform(0.01, 5.0));
      }
    }
    idx.Finalize();
    std::vector<TermId> query;
    for (TermId t = 0; t < terms; ++t) query.push_back(t);
    size_t k = 1 + rng.NextUint64(15);

    auto ta = ThresholdTopK(idx, query, k);
    auto ex = ExhaustiveTopK(idx, query, k);
    ASSERT_EQ(ta.docs.size(), ex.docs.size()) << "trial " << trial;
    for (size_t i = 0; i < ta.docs.size(); ++i) {
      EXPECT_EQ(ta.docs[i].doc, ex.docs[i].doc) << "trial " << trial;
      EXPECT_NEAR(ta.docs[i].score, ex.docs[i].score, 1e-9);
    }
  }
}

TEST(ThresholdTopK, UnseenDocTiedAtKthScoreWinsBySmallerId) {
  // term 0: d9=2, d1=1; term 1: d5=1.5, d1=1. After one round TA holds d9
  // (2.0) and d5 (1.5) and the threshold is 1 + 1 = 2 — equal to the k-th
  // score. The unseen d1 also totals 2.0 and, with the smaller id, belongs
  // in the top-1: TA must not stop on a tie.
  InvertedIndex idx;
  idx.Add(0, 9, 2.0);
  idx.Add(0, 1, 1.0);
  idx.Add(1, 5, 1.5);
  idx.Add(1, 1, 1.0);
  idx.Finalize();
  const TopKResult ta = ThresholdTopK(idx, {0, 1}, 1);
  const TopKResult ex = ExhaustiveTopK(idx, {0, 1}, 1);
  ASSERT_EQ(ex.docs.size(), 1u);
  EXPECT_EQ(ex.docs[0].doc, 1u);
  ASSERT_EQ(ta.docs.size(), 1u);
  EXPECT_EQ(ta.docs[0], ex.docs[0]);
}

TEST(ThresholdTopK, MatchesExhaustiveOnTieHeavyIndexes) {
  // Scores drawn from a handful of dyadic values, so sums are exact and
  // aggregate ties are everywhere — including at the k-th score, where TA
  // must keep exactly the exhaustive merge's documents (ascending id).
  Rng rng(4711);
  const double kValues[] = {0.25, 0.5, 1.0, 2.0};
  for (int trial = 0; trial < 300; ++trial) {
    InvertedIndex idx;
    const size_t terms = 1 + rng.NextUint64(4);
    const DocId docs = static_cast<DocId>(4 + rng.NextUint64(60));
    for (TermId t = 0; t < terms; ++t) {
      for (DocId d = 0; d < docs; ++d) {
        if (rng.Bernoulli(0.5)) idx.Add(t, d, kValues[rng.NextUint64(4)]);
      }
    }
    idx.Finalize();
    std::vector<TermId> query;
    for (TermId t = 0; t < terms; ++t) query.push_back(t);
    const size_t k = 1 + rng.NextUint64(10);
    const TopKResult ta = ThresholdTopK(idx, query, k);
    const TopKResult ex = ExhaustiveTopK(idx, query, k);
    ASSERT_EQ(ta.docs.size(), ex.docs.size()) << "trial " << trial;
    for (size_t i = 0; i < ta.docs.size(); ++i) {
      EXPECT_EQ(ta.docs[i].doc, ex.docs[i].doc)
          << "trial " << trial << " rank " << i;
      EXPECT_EQ(ta.docs[i].score, ex.docs[i].score)
          << "trial " << trial << " rank " << i;
    }
  }
}

TEST(ThresholdTopK, NeverMoreSortedAccessesThanExhaustive) {
  Rng rng(7);
  InvertedIndex idx;
  for (TermId t = 0; t < 3; ++t) {
    for (DocId d = 0; d < 400; ++d) {
      if (rng.Bernoulli(0.5)) idx.Add(t, d, rng.Uniform(0.1, 2.0));
    }
  }
  idx.Finalize();
  auto ta = ThresholdTopK(idx, {0, 1, 2}, 5);
  auto ex = ExhaustiveTopK(idx, {0, 1, 2}, 5);
  EXPECT_LE(ta.sorted_accesses, ex.sorted_accesses);
}

}  // namespace
}  // namespace stburst
