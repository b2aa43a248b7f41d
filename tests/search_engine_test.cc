// Tests for the bursty-document search engine (index/search_engine).

#include "stburst/index/search_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
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
  std::vector<std::vector<CombinatorialPattern>> mined(vocab);
  for (TermId t = 0; t < vocab; ++t) {
    const size_t count = rng.NextUint64(3);
    for (size_t i = 0; i < count; ++i) {
      const Timestamp start = static_cast<Timestamp>(rng.NextUint64(10));
      std::vector<StreamId> streams;
      for (StreamId s = 0; s < n; ++s) {
        if (rng.Bernoulli(0.6)) streams.push_back(s);
      }
      if (streams.empty()) streams.push_back(0);
      mined[t].push_back(CombinatorialPattern{
          std::move(streams), Interval{start, start + 3},
          rng.Uniform(0.5, 3.0)});
      patterns.AddCombinatorial(t, mined[t].back());
    }
  }

  auto engine = BurstySearchEngine::Build(*c, patterns);
  std::vector<std::vector<DocCount>> doc_postings;
  AppendDocPostings(*c, c->doc_id_base(), &doc_postings);
  const DocCellTable cells = DocCellTable::Build(*c);
  StreamPatternIndex index;
  std::vector<TermId> terms;
  std::vector<std::shared_ptr<const TermList>> lists;
  for (TermId t = 0; t < doc_postings.size(); ++t) {
    for (size_t i = 1; i < doc_postings[t].size(); ++i) {
      ASSERT_LT(doc_postings[t][i - 1].doc, doc_postings[t][i].doc);
    }
    std::vector<Posting> scored;
    index.Reset(mined[t]);
    ScoreDocPostings(cells, doc_postings[t], index, &scored);
    terms.push_back(t);
    lists.push_back(TermList::Freeze(std::move(scored)));
  }
  const InvertedIndex term_major =
      InvertedIndex().Successor(terms, std::move(lists));
  ExpectIdenticalIndexes(term_major, engine.index());
}

// Random patterns for `vocab` terms over streams [0, streams) and
// timestamps [0, 16), in the shapes the per-stream index must get exactly
// right: a stream listed twice in one pattern, invalid (empty) timeframes,
// overlapping patterns with equal scores, and streams that carry no
// documents. Unsorted stream lists are passed on as-is.
std::vector<std::vector<CombinatorialPattern>> RandomEdgePatterns(
    Rng* rng, size_t vocab, StreamId streams) {
  std::vector<std::vector<CombinatorialPattern>> out(vocab);
  for (size_t t = 0; t < vocab; ++t) {
    const size_t count = rng->NextUint64(5);
    for (size_t i = 0; i < count; ++i) {
      CombinatorialPattern p;
      const size_t width = 1 + rng->NextUint64(3);
      for (size_t k = 0; k < width; ++k) {
        p.streams.push_back(static_cast<StreamId>(rng->NextUint64(streams)));
      }
      if (rng->Bernoulli(0.2)) p.streams.push_back(p.streams.front());
      const Timestamp start = static_cast<Timestamp>(rng->NextUint64(14));
      p.timeframe = rng->Bernoulli(0.15)
                        ? Interval{start + 2, start}  // invalid: empty
                        : Interval{start, start + static_cast<Timestamp>(
                                                      rng->NextUint64(6))};
      // Reuse the previous score (ties) or draw one.
      p.score = !out[t].empty() && rng->Bernoulli(0.3) ? out[t].back().score
                                                        : rng->Uniform(0.5, 3.0);
      out[t].push_back(std::move(p));
    }
  }
  return out;
}

TEST(DocPostings, StreamIndexedKernelMatchesDocMajorBuildOnEdgeShapes) {
  // The kernel FeedRuntime runs — a DocCellTable of the retained documents
  // and a StreamPatternIndex per term — against the doc-major oracle, on
  // collections whose doc-level postings still hold an evicted prefix (ids
  // below doc_id_base(), as between an evicting tick and its commit trim).
  // The kernel reads the miners' CombinatorialPatterns directly; the oracle
  // reads PatternIndex's sorted TermPattern copies of them.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(100 + seed);
    auto c = Collection::Create(16);
    const StreamId doc_streams = 3, all_streams = 5;  // 3, 4: no documents
    for (StreamId s = 0; s < all_streams; ++s) {
      c->AddStream("s", {}, Point2D{static_cast<double>(s), 0.0});
    }
    const size_t vocab = 8;
    Vocabulary* v = c->mutable_vocabulary();
    for (size_t t = 0; t < vocab; ++t) v->Intern("t" + std::to_string(t));
    for (Timestamp t = 0; t < 16; ++t) {
      for (StreamId s = 0; s < doc_streams; ++s) {
        const size_t docs = rng.NextUint64(4);
        for (size_t d = 0; d < docs; ++d) {
          std::vector<TermId> tokens;
          const size_t len = 1 + rng.NextUint64(6);
          for (size_t i = 0; i < len; ++i) {
            tokens.push_back(static_cast<TermId>(rng.NextUint64(vocab)));
          }
          if (rng.Bernoulli(0.1)) {  // counts past the small-count table
            tokens.insert(tokens.end(), 60 + rng.NextUint64(10), tokens[0]);
          }
          ASSERT_TRUE(c->AddDocument(s, t, std::move(tokens)).ok());
        }
      }
    }
    std::vector<std::vector<DocCount>> doc_postings;
    AppendDocPostings(*c, c->doc_id_base(), &doc_postings);
    ASSERT_TRUE(c->EvictBefore(static_cast<Timestamp>(1 + seed % 4)).ok());
    ASSERT_GT(c->doc_id_base(), 0u);

    const std::vector<std::vector<CombinatorialPattern>> mined =
        RandomEdgePatterns(&rng, vocab, all_streams);
    PatternIndex patterns;
    for (TermId t = 0; t < vocab; ++t) {
      for (const CombinatorialPattern& p : mined[t]) {
        patterns.AddCombinatorial(t, p);
      }
    }
    auto engine = BurstySearchEngine::Build(*c, patterns);

    const DocCellTable cells = DocCellTable::Build(*c);
    ASSERT_EQ(cells.base, c->doc_id_base());
    ASSERT_EQ(cells.cells.size(), c->num_documents());
    StreamPatternIndex index;
    std::vector<TermId> terms;
    std::vector<std::shared_ptr<const TermList>> lists;
    for (TermId t = 0; t < doc_postings.size(); ++t) {
      std::vector<Posting> scored;
      index.Reset(mined[t]);
      ScoreDocPostings(cells, doc_postings[t], index, &scored);
      for (const Posting& p : scored) EXPECT_GE(p.doc, c->doc_id_base());
      terms.push_back(t);
      lists.push_back(TermList::Freeze(std::move(scored)));
    }
    const InvertedIndex term_major =
        InvertedIndex().Successor(terms, std::move(lists));
    ExpectIdenticalIndexes(term_major, engine.index());
  }
}

TEST(StreamPatternIndex, LookupEqualsPatternScanAcrossReuse) {
  // Every (stream, time) lookup equals MaxOverlapScore's scan of the whole
  // list, bit for bit, while one index is reused across terms whose stream
  // ranges grow and shrink (stale slots of an earlier term must not leak).
  Rng rng(7);
  StreamPatternIndex index;
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE(round);
    const StreamId streams = static_cast<StreamId>(
        round % 3 == 0 ? 40 : 1 + rng.NextUint64(6));
    const std::vector<CombinatorialPattern> mined =
        RandomEdgePatterns(&rng, 1, streams)[0];
    std::vector<TermPattern> copies;
    for (const CombinatorialPattern& p : mined) {
      TermPattern copy{p.streams, p.timeframe, p.score};
      std::sort(copy.streams.begin(), copy.streams.end());
      copies.push_back(std::move(copy));
    }
    index.Reset(mined);
    EXPECT_EQ(index.empty(), std::none_of(copies.begin(), copies.end(),
                                          [](const TermPattern& p) {
                                            return p.timeframe.valid();
                                          }));
    for (StreamId s = 0; s < 42; ++s) {
      for (Timestamp t = -1; t < 22; ++t) {
        double want = -1.0, got = -1.0;
        const bool hit = MaxOverlapScore(copies, s, t, &want);
        ASSERT_EQ(index.MaxOverlapScore(s, t, &got), hit)
            << "stream " << s << " time " << t;
        if (hit) EXPECT_EQ(got, want);
      }
    }
  }
  index.Reset(std::span<const CombinatorialPattern>());
  EXPECT_TRUE(index.empty());
  double score = 0.0;
  EXPECT_FALSE(index.MaxOverlapScore(0, 0, &score));
}

TEST(Relevance, LogOfFrequencyPlusOne) {
  EXPECT_DOUBLE_EQ(Relevance(0.0), 0.0);
  EXPECT_NEAR(Relevance(1.0), std::log(2.0), 1e-12);
  EXPECT_GT(Relevance(10.0), Relevance(5.0));
}

}  // namespace
}  // namespace stburst
