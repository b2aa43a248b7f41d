// Tests for the bursty-document search engine (index/search_engine).

#include "stburst/index/search_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index_test_util.h"
#include "stburst/common/random.h"

namespace stburst {
namespace {

// A 2-stream, 10-timestamp corpus with a known pattern on (stream 0,
// weeks [2, 5]).
struct Fixture {
  Collection collection;
  PatternIndex patterns;
  TermId quake;
  DocId in_pattern_strong;   // 3 mentions inside the pattern
  DocId in_pattern_weak;     // 1 mention inside the pattern
  DocId out_of_time;         // mention outside the timeframe
  DocId out_of_space;        // mention on the other stream

  static Fixture Make() {
    auto c = Collection::Create(10);
    StreamId s0 = c->AddStream("A", {}, Point2D{0, 0});
    StreamId s1 = c->AddStream("B", {}, Point2D{9, 9});
    Vocabulary* v = c->mutable_vocabulary();
    TermId quake = v->Intern("earthquake");
    TermId filler = v->Intern("filler");

    DocId strong = *c->AddDocument(s0, 3, {quake, quake, quake, filler});
    DocId weak = *c->AddDocument(s0, 4, {quake, filler});
    DocId late = *c->AddDocument(s0, 8, {quake, quake, quake});
    DocId elsewhere = *c->AddDocument(s1, 3, {quake, quake, quake});

    PatternIndex p;
    p.Add(quake, TermPattern{{s0}, Interval{2, 5}, 2.0});
    return Fixture{std::move(*c), std::move(p), quake,
                   strong, weak, late, elsewhere};
  }
};

TEST(BurstySearchEngine, RanksByRelevanceTimesBurstiness) {
  Fixture f = Fixture::Make();
  auto engine = BurstySearchEngine::Build(f.collection, f.patterns);
  auto result = engine.Search("earthquake", 10);
  ASSERT_EQ(result.docs.size(), 2u);  // only pattern-overlapping docs
  EXPECT_EQ(result.docs[0].doc, f.in_pattern_strong);
  EXPECT_EQ(result.docs[1].doc, f.in_pattern_weak);
  EXPECT_NEAR(result.docs[0].score, std::log(4.0) * 2.0, 1e-9);
  EXPECT_NEAR(result.docs[1].score, std::log(2.0) * 2.0, 1e-9);
}

TEST(BurstySearchEngine, DocsOutsidePatternsAreExcluded) {
  Fixture f = Fixture::Make();
  auto engine = BurstySearchEngine::Build(f.collection, f.patterns);
  auto result = engine.Search("earthquake", 10);
  for (const auto& d : result.docs) {
    EXPECT_NE(d.doc, f.out_of_time);
    EXPECT_NE(d.doc, f.out_of_space);
  }
}

TEST(BurstySearchEngine, UnknownQueryTermYieldsNothing) {
  Fixture f = Fixture::Make();
  auto engine = BurstySearchEngine::Build(f.collection, f.patterns);
  EXPECT_TRUE(engine.Search("nonexistent", 5).docs.empty());
  EXPECT_TRUE(engine.Search("", 5).docs.empty());
}

TEST(BurstySearchEngine, MultiTermQuerySumsContributions) {
  auto c = Collection::Create(10);
  StreamId s0 = c->AddStream("A", {}, {});
  Vocabulary* v = c->mutable_vocabulary();
  TermId air = v->Intern("air");
  TermId france = v->Intern("france");
  DocId both = *c->AddDocument(s0, 1, {air, france});
  DocId only_air = *c->AddDocument(s0, 1, {air});

  PatternIndex p;
  p.Add(air, TermPattern{{s0}, Interval{0, 5}, 1.0});
  p.Add(france, TermPattern{{s0}, Interval{0, 5}, 1.0});

  auto engine = BurstySearchEngine::Build(*c, p);
  auto result = engine.Search("air france", 10);
  ASSERT_EQ(result.docs.size(), 2u);
  EXPECT_EQ(result.docs[0].doc, both);
  EXPECT_EQ(result.docs[1].doc, only_air);
  EXPECT_NEAR(result.docs[0].score, 2.0 * std::log(2.0), 1e-9);
}

TEST(BurstySearchEngine, ThresholdAndExhaustiveAgree) {
  Fixture f = Fixture::Make();
  SearchEngineOptions ta;
  ta.use_threshold_algorithm = true;
  SearchEngineOptions ex;
  ex.use_threshold_algorithm = false;
  auto engine_ta = BurstySearchEngine::Build(f.collection, f.patterns, ta);
  auto engine_ex = BurstySearchEngine::Build(f.collection, f.patterns, ex);
  auto r1 = engine_ta.Search("earthquake", 5);
  auto r2 = engine_ex.Search("earthquake", 5);
  ASSERT_EQ(r1.docs.size(), r2.docs.size());
  for (size_t i = 0; i < r1.docs.size(); ++i) {
    EXPECT_EQ(r1.docs[i].doc, r2.docs[i].doc);
  }
}

TEST(DocPostings, TermMajorScoringMatchesDocMajorBuild) {
  // The path FeedRuntime's search serving takes — per-term scoring of
  // doc-level (doc, count) postings — must produce postings identical to
  // the doc-major BurstySearchEngine::Build from the same pattern state, on
  // a randomized corpus.
  Rng rng(17);
  auto c = Collection::Create(12);
  const size_t n = 3, vocab = 10;
  for (size_t s = 0; s < n; ++s) {
    c->AddStream("s", {}, Point2D{static_cast<double>(s), 0.0});
  }
  Vocabulary* v = c->mutable_vocabulary();
  for (size_t t = 0; t < vocab; ++t) v->Intern("t" + std::to_string(t));
  for (Timestamp t = 0; t < 12; ++t) {
    for (StreamId s = 0; s < n; ++s) {
      const size_t docs = rng.NextUint64(3);
      for (size_t d = 0; d < docs; ++d) {
        std::vector<TermId> tokens;
        const size_t len = 1 + rng.NextUint64(5);
        for (size_t i = 0; i < len; ++i) {
          tokens.push_back(static_cast<TermId>(rng.NextUint64(vocab)));
        }
        ASSERT_TRUE(c->AddDocument(s, t, std::move(tokens)).ok());
      }
    }
  }
  PatternIndex patterns;
  for (TermId t = 0; t < vocab; ++t) {
    const size_t count = rng.NextUint64(3);
    for (size_t i = 0; i < count; ++i) {
      const Timestamp start = static_cast<Timestamp>(rng.NextUint64(10));
      std::vector<StreamId> streams;
      for (StreamId s = 0; s < n; ++s) {
        if (rng.Bernoulli(0.6)) streams.push_back(s);
      }
      if (streams.empty()) streams.push_back(0);
      patterns.Add(t, TermPattern{std::move(streams),
                                  Interval{start, start + 3},
                                  rng.Uniform(0.5, 3.0)});
    }
  }

  auto engine = BurstySearchEngine::Build(*c, patterns);
  std::vector<std::vector<DocCount>> doc_postings;
  AppendDocPostings(*c, c->doc_id_base(), &doc_postings);
  std::vector<TermId> terms;
  std::vector<std::shared_ptr<const TermList>> lists;
  for (TermId t = 0; t < doc_postings.size(); ++t) {
    for (size_t i = 1; i < doc_postings[t].size(); ++i) {
      ASSERT_LT(doc_postings[t][i - 1].doc, doc_postings[t][i].doc);
    }
    std::vector<Posting> scored;
    ScoreDocPostings(*c, doc_postings[t], patterns.PatternsFor(t), &scored);
    terms.push_back(t);
    lists.push_back(TermList::Freeze(std::move(scored)));
  }
  const InvertedIndex term_major =
      InvertedIndex().Successor(terms, std::move(lists));
  ExpectIdenticalIndexes(term_major, engine.index());
}

TEST(Relevance, LogOfFrequencyPlusOne) {
  EXPECT_DOUBLE_EQ(Relevance(0.0), 0.0);
  EXPECT_NEAR(Relevance(1.0), std::log(2.0), 1e-12);
  EXPECT_GT(Relevance(10.0), Relevance(5.0));
}

}  // namespace
}  // namespace stburst
