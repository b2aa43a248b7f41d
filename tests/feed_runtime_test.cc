// Tests for stream/feed_runtime: the long-running live-feed runtime — tick
// determinism across thread counts, the bounded-memory plateau under a
// retention window, retention edge cases (burst at the window boundary,
// re-appending an evicted term), and the quiet-term refresh policy.

#include "stburst/stream/feed_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "index_test_util.h"
#include "stburst/common/fault_injection.h"
#include "stburst/common/random.h"
#include "stburst/core/expected.h"
#include "stburst/index/search_engine.h"

namespace stburst {
namespace {

// The full-rebuild reference for search serving: a from-scratch
// BurstySearchEngine over the retained collection and the *standing*
// patterns (search serving is consistent with result(), staleness and all,
// not with a hypothetical fresh mine).
InvertedIndex RebuildReferenceSearchIndex(const FeedRuntime& runtime,
                                          SearchServing source) {
  PatternIndex patterns;
  for (TermId t = 0; t < runtime.result().terms.size(); ++t) {
    const TermPatterns& slot = runtime.result().terms[t];
    if (source == SearchServing::kCombinatorial) {
      for (const auto& p : slot.combinatorial) patterns.AddCombinatorial(t, p);
    } else {
      for (const auto& w : slot.regional) patterns.AddWindow(t, w);
    }
  }
  auto engine = BurstySearchEngine::Build(runtime.collection(), patterns);
  // Copy out the index (the engine owns it); postings/maps copy cleanly.
  return engine.index();
}

Collection MakeSeedCollection(size_t num_streams, Timestamp timeline,
                              size_t vocab) {
  auto c = Collection::Create(timeline);
  EXPECT_TRUE(c.ok());
  for (size_t s = 0; s < num_streams; ++s) {
    c->AddStream("s" + std::to_string(s), {},
                 Point2D{static_cast<double>(s % 4), static_cast<double>(s / 4)});
  }
  Vocabulary* v = c->mutable_vocabulary();
  for (size_t t = 0; t < vocab; ++t) v->Intern("term" + std::to_string(t));
  return std::move(*c);
}

// One deterministic feed tick: a handful of Zipf-ish documents per stream.
Snapshot MakeSnapshot(Rng& rng, size_t num_streams, size_t vocab) {
  Snapshot snap;
  for (StreamId s = 0; s < num_streams; ++s) {
    size_t docs = 1 + rng.NextUint64(3);
    for (size_t d = 0; d < docs; ++d) {
      SnapshotDocument doc;
      doc.stream = s;
      size_t len = 2 + rng.NextUint64(4);
      for (size_t i = 0; i < len; ++i) {
        TermId tok = static_cast<TermId>(rng.NextUint64(vocab));
        if (rng.Bernoulli(0.5)) tok = static_cast<TermId>(tok % (vocab / 4 + 1));
        doc.tokens.push_back(tok);
      }
      snap.push_back(std::move(doc));
    }
  }
  return snap;
}

void ExpectIdenticalResults(const BatchMineResult& a, const BatchMineResult& b) {
  ASSERT_EQ(a.terms.size(), b.terms.size());
  EXPECT_EQ(a.terms_mined, b.terms_mined);
  EXPECT_EQ(a.terms_skipped, b.terms_skipped);
  for (size_t t = 0; t < a.terms.size(); ++t) {
    const TermPatterns& pa = a.terms[t];
    const TermPatterns& pb = b.terms[t];
    ASSERT_EQ(pa.mined, pb.mined) << "term " << t;
    ASSERT_EQ(pa.combinatorial.size(), pb.combinatorial.size()) << "term " << t;
    for (size_t i = 0; i < pa.combinatorial.size(); ++i) {
      EXPECT_EQ(pa.combinatorial[i].streams, pb.combinatorial[i].streams);
      EXPECT_EQ(pa.combinatorial[i].timeframe, pb.combinatorial[i].timeframe);
      EXPECT_EQ(pa.combinatorial[i].score, pb.combinatorial[i].score);
    }
    ASSERT_EQ(pa.regional.size(), pb.regional.size()) << "term " << t;
    for (size_t i = 0; i < pa.regional.size(); ++i) {
      EXPECT_EQ(pa.regional[i].streams, pb.regional[i].streams);
      EXPECT_EQ(pa.regional[i].timeframe, pb.regional[i].timeframe);
      EXPECT_EQ(pa.regional[i].score, pb.regional[i].score);
    }
  }
}

void ExpectIdenticalPostings(const FrequencyIndex& a, const FrequencyIndex& b) {
  ASSERT_EQ(a.num_terms(), b.num_terms());
  ASSERT_EQ(a.window_start(), b.window_start());
  ASSERT_EQ(a.timeline_length(), b.timeline_length());
  for (TermId t = 0; t < a.num_terms(); ++t) {
    const auto& pa = a.postings(t);
    const auto& pb = b.postings(t);
    ASSERT_EQ(pa.size(), pb.size()) << "term " << t;
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].stream, pb[i].stream);
      EXPECT_EQ(pa[i].time, pb[i].time);
      EXPECT_EQ(pa[i].count, pb[i].count);
    }
  }
}

// A seed whose first two timestamps carry a burst of terms 0..2 on streams
// 0 and 1 over a background of every term on every stream: STComb mines
// patterns for the burst terms that reach back to the oldest timestamps, so
// the search snapshot holds postings on the documents evicted first.
Collection MakeBurstySeed(size_t num_streams, Timestamp timeline,
                          size_t vocab) {
  Collection seed = MakeSeedCollection(num_streams, timeline, vocab);
  for (Timestamp t = 0; t < timeline; ++t) {
    for (StreamId s = 0; s < num_streams; ++s) {
      std::vector<TermId> tokens;
      for (TermId term = 0; term < vocab; ++term) tokens.push_back(term);
      if (t < 2 && s < 2) {
        for (int r = 0; r < 6; ++r) {
          for (TermId term = 0; term < 3; ++term) tokens.push_back(term);
        }
      }
      EXPECT_TRUE(seed.AddDocument(s, t, std::move(tokens)).ok());
    }
  }
  return seed;
}

// Every posting of a published snapshot names a live document of
// `collection`, and the snapshot's doc_id_base is the collection's.
void ExpectOnlyLivePostings(const IndexSnapshot& snapshot,
                            const Collection& collection) {
  EXPECT_EQ(snapshot.doc_id_base, collection.doc_id_base());
  const DocId end =
      collection.doc_id_base() + static_cast<DocId>(collection.num_documents());
  for (TermId t = 0; t < snapshot.index.num_terms(); ++t) {
    for (const Posting& p : snapshot.index.postings(t)) {
      EXPECT_GE(p.doc, snapshot.doc_id_base) << "term " << t;
      EXPECT_LT(p.doc, end) << "term " << t;
    }
  }
}

FeedRuntimeOptions BaseOptions(size_t threads) {
  FeedRuntimeOptions opts;
  opts.miner.stcomb.min_interval_burstiness = 0.05;
  opts.num_threads = threads;
  return opts;
}

TEST(FeedRuntime, TickOutputBitIdenticalAt1248Threads) {
  constexpr size_t kStreams = 8;
  constexpr size_t kVocab = 120;
  constexpr int kTicks = 40;

  std::unique_ptr<FeedRuntime> reference;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    FeedRuntimeOptions opts = BaseOptions(threads);
    opts.retention_window = 16;
    opts.refresh_budget = 6;
    opts.miner.mine_regional = true;
    opts.miner.positions.resize(kStreams);
    for (size_t s = 0; s < kStreams; ++s) {
      opts.miner.positions[s] =
          Point2D{static_cast<double>(s % 4), static_cast<double>(s / 4)};
    }
    opts.miner.model_factory = WithPriorFloor(
        [] { return std::make_unique<GlobalMeanModel>(); }, 0.2);

    opts.search_serving = SearchServing::kRegional;

    auto runtime = FeedRuntime::Create(MakeSeedCollection(kStreams, 4, kVocab),
                                       std::move(opts));
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();

    Rng rng(777);  // same seed per thread count -> same snapshot sequence
    for (int tick = 0; tick < kTicks; ++tick) {
      auto stats = runtime->Tick(MakeSnapshot(rng, kStreams, kVocab));
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    }
    if (reference == nullptr) {
      reference = std::make_unique<FeedRuntime>(std::move(*runtime));
    } else {
      ExpectIdenticalPostings(reference->index(), runtime->index());
      ExpectIdenticalResults(reference->result(), runtime->result());
      // The maintained search index is part of the bit-identical surface.
      ASSERT_NE(runtime->search_index(), nullptr);
      ExpectIdenticalIndexes(*reference->search_index(),
                             *runtime->search_index());
    }
  }
}

TEST(FeedRuntime, WindowedMemoryPlateausWhileUnwindowedGrows) {
  constexpr size_t kStreams = 6;
  constexpr size_t kVocab = 100;
  constexpr Timestamp kWindow = 50;
  constexpr int kTicks = 200;

  FeedRuntimeOptions windowed = BaseOptions(2);
  windowed.retention_window = kWindow;
  auto bounded = FeedRuntime::Create(MakeSeedCollection(kStreams, 1, kVocab),
                                     std::move(windowed));
  ASSERT_TRUE(bounded.ok());

  auto unbounded = FeedRuntime::Create(MakeSeedCollection(kStreams, 1, kVocab),
                                       BaseOptions(2));
  ASSERT_TRUE(unbounded.ok());

  Rng rng_a(99), rng_b(99);  // identical feeds
  size_t bounded_at_window = 0, bounded_peak_after = 0;
  size_t unbounded_at_window = 0;
  for (int tick = 0; tick < kTicks; ++tick) {
    ASSERT_TRUE(bounded->Tick(MakeSnapshot(rng_a, kStreams, kVocab)).ok());
    ASSERT_TRUE(unbounded->Tick(MakeSnapshot(rng_b, kStreams, kVocab)).ok());
    const size_t mem = bounded->index().PostingsMemoryBytes();
    if (tick + 1 == kWindow) {
      bounded_at_window = mem;
      unbounded_at_window = unbounded->index().PostingsMemoryBytes();
    } else if (tick + 1 > kWindow) {
      bounded_peak_after = std::max(bounded_peak_after, mem);
    }
  }

  // The windowed run plateaus: its peak after the window fills stays within
  // 1.5x of the steady state at snapshot W.
  ASSERT_GT(bounded_at_window, 0u);
  EXPECT_LE(static_cast<double>(bounded_peak_after),
            1.5 * static_cast<double>(bounded_at_window))
      << "peak " << bounded_peak_after << " vs steady " << bounded_at_window;

  // The unwindowed run keeps growing roughly linearly: 200 snapshots hold
  // far more than 1.5x the postings of 50.
  const size_t unbounded_final = unbounded->index().PostingsMemoryBytes();
  EXPECT_GE(static_cast<double>(unbounded_final),
            2.5 * static_cast<double>(unbounded_at_window))
      << "final " << unbounded_final << " vs @window " << unbounded_at_window;

  // And the window actually slid: only the last W timestamps are retained.
  EXPECT_EQ(bounded->window_start(), bounded->collection().timeline_length() -
                                         kWindow);
  EXPECT_EQ(bounded->index().window_length(), kWindow);
}

// A burst whose first timestamp sits exactly on the eviction cutoff must
// survive eviction whole: the boundary is inclusive on the retained side.
TEST(FeedRuntime, WindowBoundaryExactlyAtBurstStart) {
  constexpr size_t kStreams = 3;
  constexpr size_t kVocab = 8;
  constexpr Timestamp kWindow = 6;
  const TermId burst_term = 1;

  FeedRuntimeOptions opts = BaseOptions(1);
  opts.retention_window = kWindow;
  auto runtime =
      FeedRuntime::Create(MakeSeedCollection(kStreams, 1, kVocab), opts);
  ASSERT_TRUE(runtime.ok());

  // Quiet filler first, then a 3-tick burst timed so that after the last
  // tick the window start lands exactly on the burst's first timestamp.
  auto quiet_tick = [&] {
    Snapshot snap;
    for (StreamId s = 0; s < kStreams; ++s) {
      snap.push_back(SnapshotDocument{s, {TermId{0}}, kNoEvent});
    }
    return snap;
  };
  auto burst_tick = [&] {
    Snapshot snap = quiet_tick();
    for (StreamId s = 0; s < kStreams; ++s) {
      snap.push_back(
          SnapshotDocument{s, {burst_term, burst_term, burst_term}, kNoEvent});
    }
    return snap;
  };

  // Timeline after Create: [0, 1). Ticks: 4 quiet (t=1..4), burst at
  // t=5,6,7, quiet at t=8,9,10. Window 6 over timeline 11 -> start at 5.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(runtime->Tick(quiet_tick()).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(runtime->Tick(burst_tick()).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(runtime->Tick(quiet_tick()).ok());

  ASSERT_EQ(runtime->window_start(), 5);
  const TermPatterns& slot = runtime->patterns(burst_term);
  ASSERT_TRUE(slot.mined);
  ASSERT_FALSE(slot.combinatorial.empty());
  // The burst [5, 7] starts exactly at the window boundary and must be
  // reported whole, in absolute timestamps.
  EXPECT_EQ(slot.combinatorial[0].timeframe, (Interval{5, 7}));
  EXPECT_EQ(slot.combinatorial[0].streams.size(), kStreams);
}

// A term whose postings are entirely evicted must come back cleanly when it
// reappears in a later snapshot: empty slot in between, fresh patterns after.
TEST(FeedRuntime, EvictedTermReappearsViaAppend) {
  constexpr size_t kStreams = 2;
  constexpr size_t kVocab = 6;
  const TermId comet = 2;

  FeedRuntimeOptions opts = BaseOptions(1);
  opts.retention_window = 4;
  auto runtime =
      FeedRuntime::Create(MakeSeedCollection(kStreams, 1, kVocab), opts);
  ASSERT_TRUE(runtime.ok());

  auto tick_with = [&](std::vector<TermId> tokens) {
    Snapshot snap;
    for (StreamId s = 0; s < kStreams; ++s) {
      snap.push_back(SnapshotDocument{s, {TermId{0}}, kNoEvent});
      if (!tokens.empty()) snap.push_back(SnapshotDocument{s, tokens, kNoEvent});
    }
    return runtime->Tick(std::move(snap));
  };

  // The term appears once, then goes quiet until its postings leave the
  // window entirely.
  ASSERT_TRUE(tick_with({comet, comet, comet}).ok());
  EXPECT_FALSE(runtime->index().postings(comet).empty());
  EXPECT_TRUE(runtime->patterns(comet).mined);

  for (int i = 0; i < 6; ++i) ASSERT_TRUE(tick_with({}).ok());
  EXPECT_TRUE(runtime->index().postings(comet).empty());
  // Eviction dirtied the term; the re-mine emptied its standing slot.
  EXPECT_FALSE(runtime->patterns(comet).mined);
  EXPECT_TRUE(runtime->patterns(comet).combinatorial.empty());

  // Reappearing is a plain append into the now-empty bucket.
  auto stats = tick_with({comet, comet, comet, comet});
  ASSERT_TRUE(stats.ok());
  const auto& postings = runtime->index().postings(comet);
  ASSERT_FALSE(postings.empty());
  for (const TermPosting& p : postings) {
    EXPECT_GE(p.time, runtime->window_start());
  }
  EXPECT_TRUE(runtime->patterns(comet).mined);
  ASSERT_FALSE(runtime->patterns(comet).combinatorial.empty());
  // The fresh burst is at the (absolute) final timestamp.
  EXPECT_EQ(runtime->patterns(comet).combinatorial[0].timeframe.start,
            runtime->collection().timeline_length() - 1);
}

// The runtime's incrementally maintained index must equal a from-scratch
// build over the evicted collection — retention does not break the
// append/rebuild equivalence invariant.
TEST(FeedRuntime, WindowedIndexMatchesRebuildFromEvictedCollection) {
  constexpr size_t kStreams = 5;
  constexpr size_t kVocab = 60;

  FeedRuntimeOptions opts = BaseOptions(3);
  opts.retention_window = 12;
  auto runtime =
      FeedRuntime::Create(MakeSeedCollection(kStreams, 3, kVocab), opts);
  ASSERT_TRUE(runtime.ok());

  Rng rng(4242);
  for (int tick = 0; tick < 30; ++tick) {
    ASSERT_TRUE(runtime->Tick(MakeSnapshot(rng, kStreams, kVocab)).ok());
  }

  FrequencyIndex rebuilt = FrequencyIndex::Build(runtime->collection(), 4);
  ExpectIdenticalPostings(runtime->index(), rebuilt);
}

TEST(FeedRuntime, SearchServingMatchesFullRebuildEveryTick) {
  // The tentpole acceptance: through appends, evictions, dirty re-mines,
  // and refresh sweeps, the incrementally maintained search index must stay
  // posting-identical to a from-scratch engine build over the retained
  // collection and standing patterns — and each editing tick must bump the
  // generation exactly once.
  constexpr size_t kStreams = 5;
  constexpr size_t kVocab = 50;

  FeedRuntimeOptions opts = BaseOptions(2);
  opts.retention_window = 10;
  opts.refresh_budget = 4;
  opts.search_serving = SearchServing::kCombinatorial;
  auto runtime =
      FeedRuntime::Create(MakeSeedCollection(kStreams, 3, kVocab), opts);
  ASSERT_TRUE(runtime.ok());
  ASSERT_NE(runtime->search_index(), nullptr);
  EXPECT_TRUE(runtime->search_index()->finalized());

  Rng rng(31337);
  uint64_t last_generation = runtime->search_index()->generation();
  for (int tick = 0; tick < 25; ++tick) {
    auto stats = runtime->Tick(MakeSnapshot(rng, kStreams, kVocab));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(runtime->search_index()->generation(), last_generation + 1)
        << "tick " << tick;
    last_generation = runtime->search_index()->generation();

    InvertedIndex reference =
        RebuildReferenceSearchIndex(*runtime, SearchServing::kCombinatorial);
    ExpectIdenticalIndexes(*runtime->search_index(), reference);

    // Queries agree too, and carry the generation for cache invalidation.
    const std::vector<TermId> query = {TermId{0}, TermId{1}, TermId{2}};
    TopKResult live = runtime->Search(query, 5);
    TopKResult rebuilt = ThresholdTopK(reference, query, 5);
    ASSERT_EQ(live.docs.size(), rebuilt.docs.size());
    for (size_t i = 0; i < live.docs.size(); ++i) {
      EXPECT_EQ(live.docs[i], rebuilt.docs[i]);
    }
    EXPECT_EQ(live.generation, last_generation);
  }
  // The run exercised eviction (window 10, 25 ticks over a 3-deep seed).
  EXPECT_GT(runtime->window_start(), 0);
}

TEST(FeedRuntime, RegionalSearchServingMatchesFullRebuildEveryTick) {
  // The same acceptance for SearchServing::kRegional: the live kernel
  // scores the standing STLocal windows (stream sets drawn from a map
  // region, not a clique) and must stay posting-identical to a from-scratch
  // engine over them through appends, evictions and refresh sweeps, with
  // TA answers equal down to the access counts.
  constexpr size_t kStreams = 8;
  constexpr size_t kVocab = 60;

  FeedRuntimeOptions opts = BaseOptions(2);
  opts.retention_window = 10;
  opts.refresh_budget = 4;
  opts.miner.mine_regional = true;
  opts.miner.positions.resize(kStreams);
  for (size_t s = 0; s < kStreams; ++s) {
    opts.miner.positions[s] =
        Point2D{static_cast<double>(s % 4), static_cast<double>(s / 4)};
  }
  opts.miner.model_factory = WithPriorFloor(
      [] { return std::make_unique<GlobalMeanModel>(); }, 0.2);
  opts.search_serving = SearchServing::kRegional;
  auto runtime =
      FeedRuntime::Create(MakeSeedCollection(kStreams, 3, kVocab), opts);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();

  Rng rng(4242);
  size_t ticks_with_postings = 0;
  for (int tick = 0; tick < 25; ++tick) {
    auto stats = runtime->Tick(MakeSnapshot(rng, kStreams, kVocab));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    const InvertedIndex reference =
        RebuildReferenceSearchIndex(*runtime, SearchServing::kRegional);
    ExpectIdenticalIndexes(*runtime->search_index(), reference);
    if (reference.total_postings() > 0) ++ticks_with_postings;

    for (const std::vector<TermId>& query :
         {std::vector<TermId>{0, 1, 2}, std::vector<TermId>{3},
          std::vector<TermId>{4, 9, 14}}) {
      const TopKResult live = runtime->Search(query, 5);
      const TopKResult rebuilt = ThresholdTopK(reference, query, 5);
      ASSERT_EQ(live.docs.size(), rebuilt.docs.size());
      for (size_t i = 0; i < live.docs.size(); ++i) {
        EXPECT_EQ(live.docs[i], rebuilt.docs[i]);
      }
      EXPECT_EQ(live.sorted_accesses, rebuilt.sorted_accesses);
      EXPECT_EQ(live.random_accesses, rebuilt.random_accesses);
    }
  }
  // Not vacuous: regional windows scored documents, and eviction ran.
  EXPECT_GT(ticks_with_postings, 20u);
  EXPECT_GT(runtime->window_start(), 0);
}

TEST(FeedRuntime, OutOfOrderHistoryEvictsInPlace) {
  // A history filed stream-major (each stream's whole timeline in turn) is
  // out of time order. Create re-files it in time order once, so every
  // eviction afterwards drops an id prefix and each evicting tick re-scores
  // only the terms it touched, never the whole vocabulary.
  constexpr size_t kStreams = 4;
  constexpr Timestamp kHistory = 6;
  constexpr size_t kVocab = 120;
  Collection seed = MakeSeedCollection(kStreams, kHistory, kVocab);
  Rng rng(5150);
  for (StreamId s = 0; s < kStreams; ++s) {
    for (Timestamp t = 0; t < kHistory; ++t) {
      std::vector<TermId> tokens = {static_cast<TermId>(s),
                                    static_cast<TermId>(kStreams + t)};
      for (int i = 0; i < 3; ++i) {
        tokens.push_back(static_cast<TermId>(rng.NextUint64(kVocab)));
      }
      ASSERT_TRUE(seed.AddDocument(s, t, std::move(tokens)).ok());
    }
  }

  FeedRuntimeOptions opts = BaseOptions(2);
  opts.retention_window = 4;
  opts.search_serving = SearchServing::kCombinatorial;
  auto runtime = FeedRuntime::Create(std::move(seed), opts);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();

  const Collection& collection = runtime->collection();
  EXPECT_EQ(collection.window_start(), kHistory - opts.retention_window);
  for (size_t i = 0; i < collection.num_documents(); ++i) {
    const Document& doc = collection.documents()[i];
    EXPECT_EQ(doc.id, collection.doc_id_base() + i) << "position " << i;
    if (i > 0) {
      EXPECT_LE(collection.documents()[i - 1].time, doc.time)
          << "position " << i;
    }
  }

  size_t evicting = 0;
  for (int tick = 0; tick < 12; ++tick) {
    SCOPED_TRACE(testing::Message() << "tick " << tick);
    auto stats = runtime->Tick(MakeSnapshot(rng, kStreams, kVocab));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_TRUE(stats->evicted);
    ++evicting;
    EXPECT_GT(stats->search_terms, 0u);
    EXPECT_LT(stats->search_terms, runtime->index().num_terms());
    ExpectOnlyLivePostings(*runtime->search_snapshot(),
                           runtime->collection());

    const InvertedIndex reference =
        RebuildReferenceSearchIndex(*runtime, SearchServing::kCombinatorial);
    ExpectIdenticalIndexes(*runtime->search_index(), reference);
    for (TermId first = 0; first < 12; first += 3) {
      const std::vector<TermId> query = {first, first + 1, first + 2};
      const TopKResult live = runtime->Search(query, 5);
      const TopKResult want = ThresholdTopK(reference, query, 5);
      EXPECT_EQ(live.docs, want.docs);
      EXPECT_EQ(live.sorted_accesses, want.sorted_accesses);
      EXPECT_EQ(live.random_accesses, want.random_accesses);
    }
  }
  EXPECT_EQ(evicting, 12u);
}

TEST(FeedRuntime, SearchGenerationStaysPutOnEditFreeTicks) {
  // A tick with no eviction, no dirty terms, and no refresh targets leaves
  // the search index bit-identical, so its generation must not move —
  // cached top-k results stay valid exactly as the contract promises.
  FeedRuntimeOptions opts = BaseOptions(1);
  opts.search_serving = SearchServing::kCombinatorial;
  Collection seed = MakeSeedCollection(2, 2, 6);
  for (Timestamp t = 0; t < 2; ++t) {
    for (StreamId s = 0; s < 2; ++s) {
      ASSERT_TRUE(seed.AddDocument(s, t, {TermId{0}, TermId{1}}).ok());
    }
  }
  auto runtime = FeedRuntime::Create(std::move(seed), opts);
  ASSERT_TRUE(runtime.ok());
  const uint64_t created = runtime->search_index()->generation();

  auto idle = runtime->Tick(Snapshot{});  // no docs, no window: no edits
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle->search_terms, 0u);
  EXPECT_EQ(runtime->search_index()->generation(), created);

  Snapshot snap;
  snap.push_back(SnapshotDocument{0, {TermId{0}}});
  auto editing = runtime->Tick(std::move(snap));  // dirty term: one bump
  ASSERT_TRUE(editing.ok());
  EXPECT_EQ(runtime->search_index()->generation(), created + 1);
}

TEST(FeedRuntime, SearchDisabledByDefault) {
  auto runtime = FeedRuntime::Create(MakeSeedCollection(2, 2, 6),
                                     BaseOptions(1));
  ASSERT_TRUE(runtime.ok());
  EXPECT_EQ(runtime->search_index(), nullptr);
}

TEST(FeedRuntime, RefreshSweepDrainsStaleness) {
  constexpr size_t kStreams = 4;
  constexpr size_t kVocab = 30;

  // A corpus where every term occurs in history with equal mass, then total
  // silence: no term is ever dirty again, so only the sweep mines. Equal
  // masses make the sweep a pure staleness rotation (ties to TermId).
  Collection seed = MakeSeedCollection(kStreams, 6, kVocab);
  for (Timestamp t = 0; t < 6; ++t) {
    for (StreamId s = 0; s < kStreams; ++s) {
      for (TermId term = 0; term < kVocab; ++term) {
        ASSERT_TRUE(seed.AddDocument(s, t, {term}).ok());
      }
    }
  }

  FeedRuntimeOptions opts = BaseOptions(2);
  opts.refresh_budget = 5;
  auto runtime = FeedRuntime::Create(std::move(seed), opts);
  ASSERT_TRUE(runtime.ok());

  // Ten empty ticks: no term is ever dirty, so only the sweep mines.
  size_t refreshed_total = 0;
  for (int tick = 0; tick < 10; ++tick) {
    auto stats = runtime->Tick(Snapshot{});
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->dirty_terms, 0u);
    EXPECT_LE(stats->refreshed_terms, 5u);
    refreshed_total += stats->refreshed_terms;
  }
  EXPECT_EQ(refreshed_total, 50u);  // budget fully used every tick

  // With 30 equal-mass terms and budget 5 the rotation cycles every 6
  // ticks, so after 10 ticks no term is staler than the cycle length — far
  // below the 10 ticks an unswept term would show.
  Timestamp max_stale = 0;
  for (TermId t = 0; t < kVocab; ++t) {
    max_stale = std::max(max_stale, runtime->staleness(t));
  }
  EXPECT_LE(max_stale, 6);
  EXPECT_GT(max_stale, 0);  // the rotation is budgeted, not instantaneous
}

TEST(FeedRuntime, RefreshSweepDrainsToZeroInSteadyState) {
  constexpr size_t kStreams = 4;
  constexpr size_t kVocab = 40;
  constexpr Timestamp kWindow = 8;

  FeedRuntimeOptions opts = BaseOptions(1);
  opts.retention_window = kWindow;
  opts.refresh_budget = 5;
  auto runtime =
      FeedRuntime::Create(MakeSeedCollection(kStreams, 1, kVocab), opts);
  ASSERT_TRUE(runtime.ok());

  Rng rng(808);
  std::vector<size_t> refreshed_per_tick;
  for (int tick = 0; tick < 30; ++tick) {
    auto stats = runtime->Tick(MakeSnapshot(rng, kStreams, kVocab));
    ASSERT_TRUE(stats.ok());
    refreshed_per_tick.push_back(stats->refreshed_terms);
  }
  // While the window grows, quiet terms' 1/N baseline drifts and the sweep
  // works; once every tick is a length-preserving slide, terms re-stamped
  // at the full window length are provably identical, so after a short
  // drain (each fill-era slot refreshed once) the sweep must go idle
  // instead of re-mining no-ops forever.
  size_t total = 0, tail = 0;
  for (size_t i = 0; i < refreshed_per_tick.size(); ++i) {
    total += refreshed_per_tick[i];
    if (i >= 20) tail += refreshed_per_tick[i];
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(tail, 0u) << "sweep still re-mining in steady state";
}

TEST(FeedRuntime, RefreshPrefersMassTimesStaleness) {
  constexpr size_t kStreams = 2;
  // Two terms, same staleness; the heavier one must be refreshed first.
  Collection seed = MakeSeedCollection(kStreams, 3, 4);
  const TermId heavy = 0, light = 1;
  for (Timestamp t = 0; t < 3; ++t) {
    for (StreamId s = 0; s < kStreams; ++s) {
      ASSERT_TRUE(seed.AddDocument(s, t, {heavy, heavy, heavy, heavy}).ok());
      ASSERT_TRUE(seed.AddDocument(s, t, {light}).ok());
    }
  }

  FeedRuntimeOptions opts = BaseOptions(1);
  opts.refresh_budget = 1;
  auto runtime = FeedRuntime::Create(std::move(seed), opts);
  ASSERT_TRUE(runtime.ok());

  ASSERT_TRUE(runtime->Tick(Snapshot{}).ok());
  // Both were stale by 1; the budget-1 sweep picked the heavier term.
  EXPECT_EQ(runtime->staleness(heavy), 0);
  EXPECT_EQ(runtime->staleness(light), 1);

  ASSERT_TRUE(runtime->Tick(Snapshot{}).ok());
  // heavy carries 4x the mass, so heavy at staleness 1 (priority 24) still
  // outranks light at staleness 2 (priority 12): mass x staleness, not LRU.
  EXPECT_EQ(runtime->staleness(heavy), 0);
  EXPECT_EQ(runtime->staleness(light), 2);
}

TEST(FeedRuntime, CreateRejectsSearchServingWithoutItsPatternType) {
  // kRegional serving with combinatorial-only mining (and vice versa) would
  // silently serve an always-empty index; Create must refuse instead.
  FeedRuntimeOptions regional = BaseOptions(1);
  regional.search_serving = SearchServing::kRegional;  // mine_regional off
  EXPECT_TRUE(FeedRuntime::Create(MakeSeedCollection(2, 2, 4), regional)
                  .status()
                  .IsInvalidArgument());

  FeedRuntimeOptions combinatorial = BaseOptions(1);
  combinatorial.search_serving = SearchServing::kCombinatorial;
  combinatorial.miner.mine_combinatorial = false;
  EXPECT_TRUE(FeedRuntime::Create(MakeSeedCollection(2, 2, 4), combinatorial)
                  .status()
                  .IsInvalidArgument());
}

TEST(FeedRuntime, CreateRejectsNegativeWindow) {
  FeedRuntimeOptions opts = BaseOptions(1);
  opts.retention_window = -3;
  auto runtime =
      FeedRuntime::Create(MakeSeedCollection(2, 2, 4), std::move(opts));
  EXPECT_TRUE(runtime.status().IsInvalidArgument());
}

TEST(FeedRuntimeValidation, RejectTickIsAtomic) {
  // The strict default: one malformed document fails the whole tick with
  // InvalidArgument and nothing — timeline included — moves.
  auto runtime = FeedRuntime::Create(MakeSeedCollection(2, 2, 6),
                                     BaseOptions(1));
  ASSERT_TRUE(runtime.ok());
  const Timestamp before = runtime->collection().timeline_length();

  Snapshot bad_stream;
  bad_stream.push_back(SnapshotDocument{0, {TermId{1}}});
  bad_stream.push_back(SnapshotDocument{77, {TermId{1}}});
  EXPECT_TRUE(runtime->Tick(std::move(bad_stream)).status().IsInvalidArgument());

  Snapshot bad_token;
  bad_token.push_back(SnapshotDocument{0, {TermId{6}}});  // vocab is [0, 6)
  EXPECT_TRUE(runtime->Tick(std::move(bad_token)).status().IsInvalidArgument());

  Snapshot bad_sentinel;
  bad_sentinel.push_back(SnapshotDocument{0, {kInvalidTerm}});
  EXPECT_TRUE(
      runtime->Tick(std::move(bad_sentinel)).status().IsInvalidArgument());

  EXPECT_EQ(runtime->collection().timeline_length(), before);
  EXPECT_EQ(runtime->collection().num_documents(), 0u);

  // The rejected ticks left no residue: a clean tick proceeds normally.
  Snapshot good;
  good.push_back(SnapshotDocument{0, {TermId{1}}});
  auto stats = runtime->Tick(std::move(good));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->documents, 1u);
  EXPECT_EQ(runtime->collection().timeline_length(), before + 1);
}

TEST(FeedRuntimeValidation, DropDocumentQuarantinesAndIngestsTheRest) {
  FeedRuntimeOptions opts = BaseOptions(1);
  opts.on_invalid = InvalidDocPolicy::kDropDocument;
  auto quarantining = FeedRuntime::Create(MakeSeedCollection(2, 2, 6), opts);
  ASSERT_TRUE(quarantining.ok());
  auto control = FeedRuntime::Create(MakeSeedCollection(2, 2, 6),
                                     BaseOptions(1));
  ASSERT_TRUE(control.ok());

  Snapshot dirty;
  dirty.push_back(SnapshotDocument{0, {TermId{1}, TermId{2}}});
  dirty.push_back(SnapshotDocument{77, {TermId{1}}});       // unknown stream
  dirty.push_back(SnapshotDocument{1, {TermId{6}}});        // out of vocab
  dirty.push_back(SnapshotDocument{1, {TermId{3}}});
  auto stats = quarantining->Tick(std::move(dirty));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rejected_documents, 2u);
  EXPECT_EQ(stats->documents, 2u);

  // The surviving documents ingest exactly as a clean snapshot would.
  Snapshot clean;
  clean.push_back(SnapshotDocument{0, {TermId{1}, TermId{2}}});
  clean.push_back(SnapshotDocument{1, {TermId{3}}});
  auto control_stats = control->Tick(std::move(clean));
  ASSERT_TRUE(control_stats.ok());
  EXPECT_EQ(control_stats->rejected_documents, 0u);
  ExpectIdenticalPostings(quarantining->index(), control->index());
  ExpectIdenticalResults(quarantining->result(), control->result());
}

TEST(FeedRuntimeValidation, DuplicateEventReportsAreInvalid) {
  // The same stream re-reporting the same explicit event id in one snapshot
  // is a duplicate; documents without an event id never are, and different
  // streams may report the same event.
  FeedRuntimeOptions opts = BaseOptions(1);
  opts.on_invalid = InvalidDocPolicy::kDropDocument;
  auto runtime = FeedRuntime::Create(MakeSeedCollection(2, 2, 6), opts);
  ASSERT_TRUE(runtime.ok());

  Snapshot snap;
  snap.push_back(SnapshotDocument{0, {TermId{1}}, 9});
  snap.push_back(SnapshotDocument{0, {TermId{2}}, 9});   // duplicate
  snap.push_back(SnapshotDocument{1, {TermId{3}}, 9});   // other stream: fine
  snap.push_back(SnapshotDocument{0, {TermId{1}}});      // no id: fine
  snap.push_back(SnapshotDocument{0, {TermId{1}}});      // no id: fine
  auto stats = runtime->Tick(std::move(snap));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rejected_documents, 1u);
  EXPECT_EQ(stats->documents, 4u);

  auto strict = FeedRuntime::Create(MakeSeedCollection(2, 2, 6),
                                    BaseOptions(1));
  ASSERT_TRUE(strict.ok());
  Snapshot dup;
  dup.push_back(SnapshotDocument{0, {TermId{1}}, 4});
  dup.push_back(SnapshotDocument{0, {TermId{2}}, 4});
  EXPECT_TRUE(strict->Tick(std::move(dup)).status().IsInvalidArgument());
}

TEST(FeedRuntime, EmptySnapshotTickIsDefined) {
  // An empty snapshot is a quiet timestamp, not an error: the timeline
  // advances, nothing is mined, and every stat reads zero.
  auto runtime = FeedRuntime::Create(MakeSeedCollection(2, 2, 6),
                                     BaseOptions(1));
  ASSERT_TRUE(runtime.ok());
  const Timestamp before = runtime->collection().timeline_length();
  auto stats = runtime->Tick(Snapshot{});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->time, before);
  EXPECT_EQ(stats->documents, 0u);
  EXPECT_EQ(stats->dirty_terms, 0u);
  EXPECT_EQ(stats->rejected_documents, 0u);
  EXPECT_FALSE(stats->evicted);
  EXPECT_FALSE(stats->degraded);
  EXPECT_EQ(runtime->collection().timeline_length(), before + 1);
}

TEST(FeedRuntimeDeadline, LadderShedsRefreshThenDefersSearch) {
  constexpr size_t kStreams = 3;
  constexpr size_t kVocab = 12;

  FeedRuntimeOptions opts = BaseOptions(1);
  opts.refresh_budget = 3;
  opts.search_serving = SearchServing::kCombinatorial;
  opts.tick_deadline_seconds = 1.0;
  // Scripted clock: reads 0.0 once (the first tick's start), then 100.0
  // forever — so the first tick is over deadline at every later check and
  // every subsequent tick (start 100, checks 100) has headroom.
  auto calls = std::make_shared<int>(0);
  opts.clock = [calls]() { return (*calls)++ == 0 ? 0.0 : 100.0; };

  // Seed history so the first tick has dirty terms to re-mine and quiet
  // terms the sweep would want.
  Collection seed = MakeSeedCollection(kStreams, 3, kVocab);
  for (Timestamp t = 0; t < 3; ++t) {
    for (StreamId s = 0; s < kStreams; ++s) {
      for (TermId term = 0; term < kVocab; ++term) {
        ASSERT_TRUE(seed.AddDocument(s, t, {term}).ok());
      }
    }
  }
  auto runtime = FeedRuntime::Create(std::move(seed), opts);
  ASSERT_TRUE(runtime.ok());
  const uint64_t created_generation = runtime->search_index()->generation();

  // Over-deadline tick: correctness work (append + dirty re-mine) runs;
  // the refresh sweep is shed and search re-scoring deferred.
  Snapshot snap;
  snap.push_back(SnapshotDocument{0, {TermId{0}, TermId{0}}});
  auto degraded = runtime->Tick(std::move(snap));
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->dirty_terms, 1u);       // correctness always runs
  EXPECT_EQ(degraded->refreshed_terms, 0u);   // ladder step 1: shed
  EXPECT_EQ(degraded->search_terms, 0u);      // ladder step 2: deferred
  EXPECT_EQ(runtime->search_index()->generation(), created_generation);

  // The next tick has headroom: the deferred term is scored (catch-up),
  // the sweep runs again, and the index is back at full-rebuild parity.
  auto catchup = runtime->Tick(Snapshot{});
  ASSERT_TRUE(catchup.ok());
  EXPECT_FALSE(catchup->degraded);
  EXPECT_GE(catchup->search_terms, 1u);
  EXPECT_GT(runtime->search_index()->generation(), created_generation);
  ExpectIdenticalIndexes(
      *runtime->search_index(),
      RebuildReferenceSearchIndex(*runtime, SearchServing::kCombinatorial));
}

TEST(FeedRuntimeDeadline, DegradedEvictingTickPublishesNoEvictedPostings) {
  // A degraded tick defers re-scoring, but its eviction still publishes: the
  // deferred terms — every term holding a posting on an evicted document —
  // are served from copies without those postings. The next tick with
  // headroom scores them and is back at full-rebuild parity.
  constexpr size_t kStreams = 3;
  constexpr size_t kVocab = 8;
  FeedRuntimeOptions opts = BaseOptions(1);
  opts.retention_window = 4;
  opts.search_serving = SearchServing::kCombinatorial;
  opts.tick_deadline_seconds = 1.0;
  // The scripted clock of LadderShedsRefreshThenDefersSearch: only the
  // first tick is over deadline.
  auto calls = std::make_shared<int>(0);
  opts.clock = [calls]() { return (*calls)++ == 0 ? 0.0 : 100.0; };
  auto runtime =
      FeedRuntime::Create(MakeBurstySeed(kStreams, 4, kVocab), opts);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  const std::shared_ptr<const IndexSnapshot> before =
      runtime->search_snapshot();

  Snapshot snap;
  snap.push_back(SnapshotDocument{2, {TermId{3}}});
  auto degraded = runtime->Tick(std::move(snap));
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_TRUE(degraded->evicted);
  EXPECT_EQ(degraded->search_terms, 0u);

  const std::shared_ptr<const IndexSnapshot> after =
      runtime->search_snapshot();
  EXPECT_EQ(after->generation, before->generation + 1);
  const DocId base = runtime->collection().doc_id_base();
  // Not vacuous: the previous generation did hold evicted postings.
  bool held_evicted = false;
  for (TermId t = 0; t < before->index.num_terms(); ++t) {
    const TermList* list = before->index.list(t);
    held_evicted |= list != nullptr && list->min_doc() < base;
  }
  ASSERT_TRUE(held_evicted);
  ExpectOnlyLivePostings(*after, runtime->collection());

  auto catchup = runtime->Tick(Snapshot{});
  ASSERT_TRUE(catchup.ok()) << catchup.status().ToString();
  EXPECT_FALSE(catchup->degraded);
  ExpectOnlyLivePostings(*runtime->search_snapshot(), runtime->collection());
  ExpectIdenticalIndexes(
      *runtime->search_index(),
      RebuildReferenceSearchIndex(*runtime, SearchServing::kCombinatorial));
}

TEST(FeedRuntime, UnscoredTermsShareListStorageAcrossGenerations) {
  // The O(changed) property of snapshot builds: a tick that re-scores one
  // term hands every other term's frozen list — the same storage — to the
  // next generation.
  constexpr size_t kStreams = 3;
  constexpr size_t kVocab = 8;
  FeedRuntimeOptions opts = BaseOptions(1);
  opts.search_serving = SearchServing::kCombinatorial;
  auto runtime =
      FeedRuntime::Create(MakeBurstySeed(kStreams, 4, kVocab), opts);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  const std::shared_ptr<const IndexSnapshot> before =
      runtime->search_snapshot();
  ASSERT_NE(before->index.list(1), nullptr);

  constexpr TermId kTouched = 5;
  Snapshot snap;
  snap.push_back(SnapshotDocument{2, {kTouched}});
  auto stats = runtime->Tick(std::move(snap));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->dirty_terms, 1u);
  EXPECT_EQ(stats->search_terms, 1u);

  const std::shared_ptr<const IndexSnapshot> after =
      runtime->search_snapshot();
  EXPECT_EQ(after->generation, before->generation + 1);
  for (TermId t = 0; t < kVocab; ++t) {
    if (t == kTouched) continue;
    EXPECT_EQ(after->index.list(t), before->index.list(t)) << "term " << t;
    EXPECT_EQ(after->index.postings(t).data(),
              before->index.postings(t).data())
        << "term " << t;
  }
  ExpectIdenticalIndexes(
      after->index,
      RebuildReferenceSearchIndex(*runtime, SearchServing::kCombinatorial));
}

TEST(FeedRuntimeSearchOracle,
     RandomTicksWithEvictionsAndDegradationMatchEngine) {
  // The randomized oracle for the search read plane: random feeds through
  // evicting ticks (out-of-order seeds included, which Create re-files in
  // time order), degraded ticks that defer re-scoring, refresh sweeps and,
  // in the fault build, armed faults. After every tick the published snapshot
  // serves only live documents; after every tick that deferred nothing it
  // equals a from-scratch BurstySearchEngine over the retained collection
  // and standing patterns, and so do TA answers, access counts included.
  constexpr size_t kStreams = 4;
  constexpr size_t kVocab = 30;
  size_t degraded_evicting = 0;
  size_t checked = 0;
#ifdef STBURST_FAULT_INJECTION
  size_t rolled_back = 0;
#endif
  for (int trial = 0; trial < 6; ++trial) {
    Rng rng(900 + static_cast<uint64_t>(trial));
    FeedRuntimeOptions opts = BaseOptions(trial % 2 == 0 ? 1 : 3);
    opts.retention_window = 3 + trial % 3;
    opts.refresh_budget = trial % 2 == 0 ? 0 : 3;
    opts.search_serving = SearchServing::kCombinatorial;
    opts.tick_deadline_seconds = 1.0;
    // Scripted clock: while `degrade` is set, every read is 10 s past the
    // previous one, so the tick is over deadline at every check.
    auto degrade = std::make_shared<bool>(false);
    auto now = std::make_shared<double>(0.0);
    opts.clock = [degrade, now]() {
      if (*degrade) *now += 10.0;
      return *now;
    };
    Collection seed = MakeSeedCollection(kStreams, 2, kVocab);
    // Every third trial files a t=1 document before the t=0 ones: the
    // collection is then out of time order, Create re-files it, and every
    // eviction still drops an id prefix.
    if (trial % 3 == 2) {
      ASSERT_TRUE(seed.AddDocument(0, 1, {TermId{1}, TermId{2}}).ok());
    }
    for (StreamId s = 0; s < kStreams; ++s) {
      ASSERT_TRUE(seed.AddDocument(s, 0, {TermId{0}, TermId{s}}).ok());
    }
    auto runtime = FeedRuntime::Create(std::move(seed), opts);
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();

    for (int tick = 0; tick < 30; ++tick) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " tick " << tick);
      const Snapshot snap = MakeSnapshot(rng, kStreams, kVocab);
      *degrade = rng.Bernoulli(0.3);
      bool ticked = false;
      StatusOr<FeedTickStats> stats = Status::Internal("not ticked");
#ifdef STBURST_FAULT_INJECTION
      const std::vector<std::string_view> sites = fault::RegisteredSites();
      const std::string_view site = sites[rng.NextUint64(sites.size())];
      if (rng.Bernoulli(0.3)) {
        const std::shared_ptr<const IndexSnapshot> held =
            runtime->search_snapshot();
        const size_t docs = runtime->collection().num_documents();
        fault::Arm(site, 1,
                   rng.Bernoulli(0.5) ? fault::FailureKind::kStatus
                                      : fault::FailureKind::kBadAlloc);
        stats = runtime->Tick(Snapshot(snap));
        const size_t hits = fault::HitCount(site);
        fault::DisarmAll();
        if (hits > 0) {
          // Rolled back: readers stay on the very same snapshot object.
          ASSERT_FALSE(stats.ok()) << "site " << site;
          EXPECT_EQ(runtime->search_snapshot(), held) << "site " << site;
          EXPECT_EQ(runtime->collection().num_documents(), docs);
          ++rolled_back;
        } else {
          ASSERT_TRUE(stats.ok()) << stats.status().ToString();
          ticked = true;  // the site is not on this tick's path
        }
      }
#endif
      if (!ticked) stats = runtime->Tick(Snapshot(snap));
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      ExpectOnlyLivePostings(*runtime->search_snapshot(),
                             runtime->collection());
      if (stats->degraded && stats->evicted) ++degraded_evicting;
      if (stats->degraded) continue;  // deferred terms lag until caught up

      const InvertedIndex reference =
          RebuildReferenceSearchIndex(*runtime, SearchServing::kCombinatorial);
      ExpectIdenticalIndexes(*runtime->search_index(), reference);
      for (int q = 0; q < 4; ++q) {
        std::vector<TermId> query;
        const size_t terms = 1 + rng.NextUint64(3);
        for (size_t i = 0; i < terms; ++i) {
          query.push_back(static_cast<TermId>(rng.NextUint64(kVocab / 3)));
        }
        const size_t k = 1 + rng.NextUint64(6);
        const TopKResult live = runtime->Search(query, k);
        const TopKResult want = ThresholdTopK(reference, query, k);
        EXPECT_EQ(live.docs, want.docs);
        EXPECT_EQ(live.sorted_accesses, want.sorted_accesses);
        EXPECT_EQ(live.random_accesses, want.random_accesses);
        EXPECT_EQ(live.docs, ExhaustiveTopK(reference, query, k).docs);
      }
      ++checked;
    }
    EXPECT_GT(runtime->window_start(), 0);
  }
  // Not vacuous: the run hit degraded evicting ticks and oracle checks.
  EXPECT_GT(degraded_evicting, 0u);
  EXPECT_GT(checked, 60u);
#ifdef STBURST_FAULT_INJECTION
  EXPECT_GT(rolled_back, 0u);
#endif
}

void ExpectIdenticalTopK(const TopKResult& a, const TopKResult& b) {
  EXPECT_EQ(a.docs, b.docs);
  EXPECT_EQ(a.sorted_accesses, b.sorted_accesses);
  EXPECT_EQ(a.random_accesses, b.random_accesses);
  EXPECT_EQ(a.early_terminated, b.early_terminated);
  EXPECT_EQ(a.generation, b.generation);
}

// The public phase protocol, driven by hand. Tick() aborts only after a
// failed StageTickDerived, so this is the one check that AbortTick also
// rolls back a transaction whose derived state staged cleanly (re-mined
// slots, refresh targets, a fully built unpublished search snapshot).
// Three lockstep runtimes see the same clean snapshots: `ticked` through
// Tick(), `phased` through the hand-driven phases, and `aborted` through
// Tick() after first preparing, staging and aborting a doomed snapshot.
TEST(FeedRuntime, PhaseProtocolMatchesTickAndAbortAfterStageRollsBack) {
  constexpr size_t kStreams = 5;
  constexpr size_t kVocab = 50;

  FeedRuntimeOptions opts = BaseOptions(2);
  opts.retention_window = 8;
  opts.refresh_budget = 4;
  opts.search_serving = SearchServing::kCombinatorial;
  auto ticked =
      FeedRuntime::Create(MakeSeedCollection(kStreams, 3, kVocab), opts);
  auto phased =
      FeedRuntime::Create(MakeSeedCollection(kStreams, 3, kVocab), opts);
  auto aborted =
      FeedRuntime::Create(MakeSeedCollection(kStreams, 3, kVocab), opts);
  ASSERT_TRUE(ticked.ok() && phased.ok() && aborted.ok());

  const std::vector<std::vector<TermId>> queries = {
      {TermId{0}, TermId{1}, TermId{2}}, {TermId{3}}, {TermId{4}, TermId{9}}};
  Rng rng(4711);
  size_t evicted = 0, refreshed = 0, rescored = 0;
  for (int tick = 0; tick < 20; ++tick) {
    SCOPED_TRACE(testing::Message() << "tick " << tick);
    const Snapshot doomed = MakeSnapshot(rng, kStreams, kVocab);
    const Snapshot snap = MakeSnapshot(rng, kStreams, kVocab);

    // Prepare → Stage → Abort: bit-identical to `ticked`, which never saw
    // `doomed`, with readers still on the very same snapshot object.
    const std::shared_ptr<const IndexSnapshot> held =
        aborted->search_snapshot();
    auto doomed_tx = aborted->PrepareTickIngest(Snapshot(doomed));
    ASSERT_TRUE(doomed_tx.ok()) << doomed_tx.status().ToString();
    ASSERT_TRUE(aborted
                    ->StageTickDerived(
                        &*doomed_tx, FeedRuntime::SelectRefreshTargets(
                                         aborted->RefreshCandidates(*doomed_tx),
                                         opts.refresh_budget))
                    .ok());
    aborted->AbortTick(std::move(*doomed_tx));
    EXPECT_EQ(aborted->search_snapshot().get(), held.get());
    EXPECT_EQ(aborted->search_snapshot()->generation, held->generation);
    ASSERT_EQ(aborted->collection().num_documents(),
              ticked->collection().num_documents());
    EXPECT_EQ(aborted->collection().doc_id_base(),
              ticked->collection().doc_id_base());
    EXPECT_EQ(aborted->collection().window_start(),
              ticked->collection().window_start());
    for (size_t i = 0; i < ticked->collection().num_documents(); ++i) {
      const Document& a = aborted->collection().documents()[i];
      const Document& b = ticked->collection().documents()[i];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.stream, b.stream);
      EXPECT_EQ(a.time, b.time);
      EXPECT_EQ(a.tokens, b.tokens);
    }
    ExpectIdenticalPostings(aborted->index(), ticked->index());
    ExpectIdenticalResults(aborted->result(), ticked->result());

    // The clean snapshot: Tick() on `ticked` and `aborted`, the phases by
    // hand on `phased`.
    auto want = ticked->Tick(Snapshot(snap));
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto recovered = aborted->Tick(Snapshot(snap));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    auto tx = phased->PrepareTickIngest(Snapshot(snap));
    ASSERT_TRUE(tx.ok()) << tx.status().ToString();
    std::vector<TermId> targets = FeedRuntime::SelectRefreshTargets(
        phased->RefreshCandidates(*tx), opts.refresh_budget);
    ASSERT_TRUE(phased->StageTickDerived(&*tx, std::move(targets)).ok());
    auto got = phased->CommitTick(std::move(*tx));
    ASSERT_TRUE(got.ok()) << got.status().ToString();

    for (const FeedTickStats* s : {&*got, &*recovered}) {
      EXPECT_EQ(s->time, want->time);
      EXPECT_EQ(s->documents, want->documents);
      EXPECT_EQ(s->rejected_documents, want->rejected_documents);
      EXPECT_EQ(s->dirty_terms, want->dirty_terms);
      EXPECT_EQ(s->refreshed_terms, want->refreshed_terms);
      EXPECT_EQ(s->search_terms, want->search_terms);
      EXPECT_EQ(s->folded_terms, want->folded_terms);
      EXPECT_EQ(s->evicted, want->evicted);
      EXPECT_EQ(s->degraded, want->degraded);
    }
    for (const FeedRuntime* r : {&*phased, &*aborted}) {
      ExpectIdenticalResults(r->result(), ticked->result());
      EXPECT_EQ(r->search_index()->generation(),
                ticked->search_index()->generation());
      ExpectIdenticalIndexes(*r->search_index(), *ticked->search_index());
      for (const std::vector<TermId>& q : queries) {
        ExpectIdenticalTopK(r->Search(q, 5), ticked->Search(q, 5));
      }
    }
    evicted += want->evicted ? 1 : 0;
    refreshed += want->refreshed_terms;
    rescored += want->search_terms;
  }
  // Not vacuous: the run evicted, refreshed and re-scored.
  EXPECT_GT(evicted, 0u);
  EXPECT_GT(refreshed, 0u);
  EXPECT_GT(rescored, 0u);
}

TEST(FeedRuntime, SearchEdgeCasesAreDefined) {
  FeedRuntimeOptions opts = BaseOptions(1);
  opts.search_serving = SearchServing::kCombinatorial;
  Collection seed = MakeSeedCollection(2, 3, 6);
  for (Timestamp t = 0; t < 3; ++t) {
    for (StreamId s = 0; s < 2; ++s) {
      ASSERT_TRUE(seed.AddDocument(s, t, {TermId{0}, TermId{1}}).ok());
    }
  }
  auto runtime = FeedRuntime::Create(std::move(seed), opts);
  ASSERT_TRUE(runtime.ok());

  // Empty query, k = 0, unknown-words-only, and out-of-range term ids all
  // return an empty (not crashed, not partial) result.
  EXPECT_TRUE(runtime->Search(std::string(""), 5).docs.empty());
  EXPECT_TRUE(runtime->Search("...!!!", 5).docs.empty());
  EXPECT_TRUE(runtime->Search("neverinterned words", 5).docs.empty());
  EXPECT_TRUE(runtime->Search(std::vector<TermId>{}, 5).docs.empty());
  EXPECT_TRUE(runtime->Search(std::vector<TermId>{TermId{0}}, 0).docs.empty());
  EXPECT_TRUE(
      runtime->Search(std::vector<TermId>{TermId{9999}}, 5).docs.empty());
}

}  // namespace
}  // namespace stburst
