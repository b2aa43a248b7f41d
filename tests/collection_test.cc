// Tests for stream/collection.

#include "stburst/stream/collection.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

namespace stburst {
namespace {

// Checks every observable field two collections share.
void ExpectSameState(const Collection& a, const Collection& b) {
  ASSERT_EQ(a.timeline_length(), b.timeline_length());
  ASSERT_EQ(a.window_start(), b.window_start());
  ASSERT_EQ(a.doc_id_base(), b.doc_id_base());
  ASSERT_EQ(a.num_documents(), b.num_documents());
  for (size_t i = 0; i < a.documents().size(); ++i) {
    const Document& da = a.documents()[i];
    const Document& db = b.documents()[i];
    EXPECT_EQ(da.id, db.id);
    EXPECT_EQ(da.stream, db.stream);
    EXPECT_EQ(da.time, db.time);
    EXPECT_EQ(da.tokens, db.tokens);
  }
  for (StreamId s = 0; s < a.num_streams(); ++s) {
    for (Timestamp t = a.window_start(); t < a.timeline_length(); ++t) {
      EXPECT_EQ(a.DocumentsAt(s, t), b.DocumentsAt(s, t));
    }
  }
}

Collection MakeRollbackFixture() {
  auto c = Collection::Create(2);
  EXPECT_TRUE(c.ok());
  StreamId s0 = c->AddStream("A", {}, {});
  StreamId s1 = c->AddStream("B", {}, {});
  TermId w = c->mutable_vocabulary()->Intern("w");
  TermId v = c->mutable_vocabulary()->Intern("v");
  EXPECT_TRUE(c->AddDocument(s0, 0, {w}).ok());
  EXPECT_TRUE(c->AddDocument(s1, 1, {w, v}).ok());
  Snapshot snap;
  snap.push_back(SnapshotDocument{s0, {v}});
  EXPECT_TRUE(c->Append(std::move(snap)).ok());
  return std::move(*c);
}

TEST(Collection, RejectsNonPositiveTimeline) {
  EXPECT_TRUE(Collection::Create(0).status().IsInvalidArgument());
  EXPECT_TRUE(Collection::Create(-3).status().IsInvalidArgument());
}

TEST(Collection, AddStreamAssignsDenseIds) {
  auto c = Collection::Create(10);
  ASSERT_TRUE(c.ok());
  StreamId a = c->AddStream("Athens", GeoPoint{37.98, 23.73}, Point2D{1, 2});
  StreamId b = c->AddStream("Berlin", GeoPoint{52.52, 13.41}, Point2D{3, 4});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c->num_streams(), 2u);
  EXPECT_EQ(c->stream(a).name, "Athens");
  EXPECT_EQ(c->stream(b).position.x, 3.0);
}

TEST(Collection, AddDocumentValidates) {
  auto c = Collection::Create(5);
  ASSERT_TRUE(c.ok());
  StreamId s = c->AddStream("X", {}, {});
  EXPECT_TRUE(c->AddDocument(99, 0, {}).status().IsInvalidArgument());
  EXPECT_TRUE(c->AddDocument(s, -1, {}).status().IsOutOfRange());
  EXPECT_TRUE(c->AddDocument(s, 5, {}).status().IsOutOfRange());
  auto doc = c->AddDocument(s, 4, {1, 2, 3});
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc, 0u);
  EXPECT_EQ(c->num_documents(), 1u);
}

TEST(Collection, DocumentsAtGroupsByStreamAndTime) {
  auto c = Collection::Create(3);
  ASSERT_TRUE(c.ok());
  StreamId s0 = c->AddStream("A", {}, {});
  StreamId s1 = c->AddStream("B", {}, {});
  TermId t = c->mutable_vocabulary()->Intern("word");
  auto d0 = c->AddDocument(s0, 0, {t});
  auto d1 = c->AddDocument(s0, 0, {t, t});
  auto d2 = c->AddDocument(s1, 2, {t});
  ASSERT_TRUE(d0.ok() && d1.ok() && d2.ok());

  EXPECT_EQ(c->DocumentsAt(s0, 0).size(), 2u);
  EXPECT_EQ(c->DocumentsAt(s0, 1).size(), 0u);
  EXPECT_EQ(c->DocumentsAt(s1, 2).size(), 1u);
  EXPECT_EQ(c->document(*d1).TermFrequency(t), 2);
  EXPECT_EQ(c->document(*d2).stream, s1);
  EXPECT_EQ(c->document(*d2).time, 2);
}

TEST(Collection, EventLabelDefaultsToNoEvent) {
  auto c = Collection::Create(2);
  ASSERT_TRUE(c.ok());
  StreamId s = c->AddStream("A", {}, {});
  auto plain = c->AddDocument(s, 0, {});
  auto labeled = c->AddDocument(s, 0, {}, 7);
  ASSERT_TRUE(plain.ok() && labeled.ok());
  EXPECT_EQ(c->document(*plain).event_id, kNoEvent);
  EXPECT_EQ(c->document(*labeled).event_id, 7);
}

TEST(Collection, AppendExtendsTimelineAndFilesDocuments) {
  auto c = Collection::Create(2);
  ASSERT_TRUE(c.ok());
  StreamId s0 = c->AddStream("A", {}, {});
  StreamId s1 = c->AddStream("B", {}, {});
  TermId w = c->mutable_vocabulary()->Intern("w");

  Snapshot snap;
  snap.push_back(SnapshotDocument{s0, {w, w}, 5});
  snap.push_back(SnapshotDocument{s1, {w}});
  auto t = c->Append(std::move(snap));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 2);
  EXPECT_EQ(c->timeline_length(), 3);
  EXPECT_EQ(c->num_documents(), 2u);
  ASSERT_EQ(c->DocumentsAt(s0, 2).size(), 1u);
  ASSERT_EQ(c->DocumentsAt(s1, 2).size(), 1u);

  const Document& doc = c->document(c->DocumentsAt(s0, 2)[0]);
  EXPECT_EQ(doc.stream, s0);
  EXPECT_EQ(doc.time, 2);
  EXPECT_EQ(doc.event_id, 5);
  EXPECT_EQ(doc.TermFrequency(w), 2);
  EXPECT_EQ(c->document(c->DocumentsAt(s1, 2)[0]).event_id, kNoEvent);
}

TEST(Collection, AppendRejectsUnknownStreamAtomically) {
  auto c = Collection::Create(1);
  ASSERT_TRUE(c.ok());
  StreamId s = c->AddStream("A", {}, {});
  Snapshot snap;
  snap.push_back(SnapshotDocument{s, {0}});
  snap.push_back(SnapshotDocument{77, {0}});  // unknown stream
  EXPECT_TRUE(c->Append(std::move(snap)).status().IsInvalidArgument());
  // All-or-nothing: the valid document was not filed either.
  EXPECT_EQ(c->timeline_length(), 1);
  EXPECT_EQ(c->num_documents(), 0u);
}

TEST(Collection, AppendEmptySnapshotStillTicksTheTimeline) {
  auto c = Collection::Create(1);
  ASSERT_TRUE(c.ok());
  StreamId s = c->AddStream("A", {}, {});
  auto t = c->Append({});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 1);
  EXPECT_EQ(c->timeline_length(), 2);
  EXPECT_TRUE(c->DocumentsAt(s, 1).empty());
}

TEST(Collection, AppendThenAddStreamCoversTheWholeTimeline) {
  auto c = Collection::Create(1);
  ASSERT_TRUE(c.ok());
  c->AddStream("A", {}, {});
  ASSERT_TRUE(c->Append({}).ok());
  StreamId late = c->AddStream("B", {}, {});
  // The late stream can still be addressed at every timestamp.
  EXPECT_TRUE(c->DocumentsAt(late, 0).empty());
  EXPECT_TRUE(c->DocumentsAt(late, 1).empty());
  Snapshot snap;
  snap.push_back(SnapshotDocument{late, {}});
  ASSERT_TRUE(c->Append(std::move(snap)).ok());
  EXPECT_EQ(c->DocumentsAt(late, 2).size(), 1u);
}

TEST(CollectionRetention, EvictBeforeDropsDocsAndRenumbers) {
  auto c = Collection::Create(4);
  ASSERT_TRUE(c.ok());
  StreamId s0 = c->AddStream("A", {}, {});
  StreamId s1 = c->AddStream("B", {}, {});
  TermId w = c->mutable_vocabulary()->Intern("w");
  ASSERT_TRUE(c->AddDocument(s0, 0, {w}).ok());
  ASSERT_TRUE(c->AddDocument(s1, 1, {w, w}).ok());
  ASSERT_TRUE(c->AddDocument(s0, 2, {w}).ok());
  ASSERT_TRUE(c->AddDocument(s1, 3, {w}).ok());

  ASSERT_TRUE(c->EvictBefore(2).ok());
  EXPECT_EQ(c->window_start(), 2);
  EXPECT_EQ(c->timeline_length(), 4);  // timestamps stay absolute
  EXPECT_EQ(c->num_documents(), 2u);
  EXPECT_EQ(c->doc_id_base(), 2u);

  // Survivors keep their ids: the evicted documents were the id prefix.
  EXPECT_EQ(c->documents()[0].time, 2);
  EXPECT_EQ(c->documents()[0].id, 2u);
  EXPECT_EQ(c->documents()[1].id, 3u);
  EXPECT_EQ(c->document(2).stream, s0);
  ASSERT_EQ(c->DocumentsAt(s1, 3).size(), 1u);
  EXPECT_EQ(c->DocumentsAt(s1, 3)[0], 3u);

  // The retained window keeps accepting documents and snapshots.
  EXPECT_TRUE(c->AddDocument(s0, 1, {w}).status().IsOutOfRange());  // evicted
  ASSERT_TRUE(c->AddDocument(s0, 3, {w}).ok());
  Snapshot snap;
  snap.push_back(SnapshotDocument{s1, {w}, kNoEvent});
  auto t = c->Append(std::move(snap));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 4);
  EXPECT_EQ(c->DocumentsAt(s1, 4).size(), 1u);

  // Cutoffs at or behind the window are no-ops; beyond the timeline fail.
  EXPECT_TRUE(c->EvictBefore(1).ok());
  EXPECT_EQ(c->window_start(), 2);
  EXPECT_TRUE(c->EvictBefore(99).IsOutOfRange());
}

TEST(CollectionRetention, EvictBeforeHandlesOutOfOrderHistory) {
  // Documents ingested out of time order cannot be evicted as an id
  // prefix: EvictBefore refuses and leaves everything untouched, and
  // SortByTime re-files the history once so the prefix erase applies.
  auto c = Collection::Create(4);
  ASSERT_TRUE(c.ok());
  StreamId s0 = c->AddStream("A", {}, {});
  StreamId s1 = c->AddStream("B", {}, {});
  TermId w = c->mutable_vocabulary()->Intern("w");
  ASSERT_TRUE(c->AddDocument(s0, 3, {w}).ok());        // id 0
  ASSERT_TRUE(c->AddDocument(s1, 0, {w}).ok());        // id 1 (evicted)
  ASSERT_TRUE(c->AddDocument(s0, 2, {w, w}).ok());     // id 2
  ASSERT_TRUE(c->AddDocument(s1, 1, {w}).ok());        // id 3 (evicted)
  ASSERT_TRUE(c->AddDocument(s0, 3, {w}).ok());        // id 4
  const Collection before = *c;

  CollectionEvictUndo undo;
  EXPECT_TRUE(c->EvictBefore(2, &undo).IsFailedPrecondition());
  EXPECT_FALSE(undo.applied);
  ExpectSameState(*c, before);
  // The precondition holds for every cutoff, no-op and out-of-range too.
  EXPECT_TRUE(c->EvictBefore(0).IsFailedPrecondition());
  EXPECT_TRUE(c->EvictBefore(99).IsFailedPrecondition());
  ExpectSameState(*c, before);

  c->SortByTime();
  ASSERT_TRUE(c->EvictBefore(2).ok());
  EXPECT_EQ(c->window_start(), 2);
  EXPECT_EQ(c->num_documents(), 3u);
  EXPECT_EQ(c->doc_id_base(), 2u);
  // Survivors are in time order (2, 3, 3) with dense ids.
  EXPECT_EQ(c->documents()[0].time, 2);
  EXPECT_EQ(c->documents()[1].time, 3);
  EXPECT_EQ(c->documents()[2].time, 3);
  for (size_t i = 0; i < c->num_documents(); ++i) {
    EXPECT_EQ(c->documents()[i].id, 2u + i);
  }
  // Both s0 docs at t=3 keep their filing order: the former id 0, then 4.
  ASSERT_EQ(c->DocumentsAt(s0, 3).size(), 2u);
  EXPECT_EQ(c->DocumentsAt(s0, 3)[0], 3u);
  EXPECT_EQ(c->DocumentsAt(s0, 3)[1], 4u);
  ASSERT_EQ(c->DocumentsAt(s0, 2).size(), 1u);
  EXPECT_EQ(c->document(c->DocumentsAt(s0, 2)[0]).TermFrequency(w), 2);
  EXPECT_EQ(c->DocumentsAt(s1, 2).size(), 0u);
  EXPECT_EQ(c->DocumentsAt(s1, 3).size(), 0u);
}

TEST(CollectionRetention, SortByTimeRefilesStablyWithDenseIds) {
  // Start from an evicted collection so the re-file numbers from a nonzero
  // doc_id_base, then file documents out of time order. Each document's
  // single token is its filing rank, so cell order can be checked.
  auto c = Collection::Create(6);
  ASSERT_TRUE(c.ok());
  const StreamId streams[] = {c->AddStream("A", {}, {}),
                              c->AddStream("B", {}, {}),
                              c->AddStream("C", {}, {})};
  for (TermId t = 0; t < 16; ++t) {
    c->mutable_vocabulary()->Intern("t" + std::to_string(t));
  }
  ASSERT_TRUE(c->AddDocument(streams[0], 0, {0}).ok());
  ASSERT_TRUE(c->AddDocument(streams[1], 1, {1}).ok());
  ASSERT_TRUE(c->EvictBefore(1).ok());
  ASSERT_EQ(c->doc_id_base(), 1u);
  const struct {
    size_t stream;
    Timestamp time;
  } filed[] = {{0, 5}, {1, 2}, {0, 5}, {2, 1}, {1, 2}, {0, 3},
               {2, 5}, {1, 2}, {0, 1}, {0, 5}, {2, 1}, {1, 4}};
  for (size_t rank = 0; rank < std::size(filed); ++rank) {
    ASSERT_TRUE(c->AddDocument(streams[filed[rank].stream], filed[rank].time,
                               {static_cast<TermId>(2 + rank)})
                    .ok());
  }

  c->SortByTime();
  ASSERT_EQ(c->num_documents(), 1u + std::size(filed));
  EXPECT_EQ(c->doc_id_base(), 1u);
  EXPECT_EQ(c->window_start(), 1);
  for (size_t i = 0; i < c->num_documents(); ++i) {
    const Document& doc = c->documents()[i];
    EXPECT_EQ(doc.id, c->doc_id_base() + i);  // dense from the base
    EXPECT_EQ(&c->document(doc.id), &doc);
    if (i > 0) {
      const Document& prev = c->documents()[i - 1];
      EXPECT_LE(prev.time, doc.time);
      // Stable: equal timestamps keep their filing order.
      if (prev.time == doc.time) EXPECT_LT(prev.tokens[0], doc.tokens[0]);
    }
  }
  // DocumentsAt lists every document exactly once, in its own cell, in
  // filing order.
  size_t listed = 0;
  for (StreamId s = 0; s < c->num_streams(); ++s) {
    for (Timestamp t = c->window_start(); t < c->timeline_length(); ++t) {
      const std::vector<DocId>& cell = c->DocumentsAt(s, t);
      for (size_t j = 0; j < cell.size(); ++j) {
        const Document& doc = c->document(cell[j]);
        EXPECT_EQ(doc.stream, s);
        EXPECT_EQ(doc.time, t);
        if (j > 0) {
          EXPECT_LT(cell[j - 1], cell[j]);
          EXPECT_LT(c->document(cell[j - 1]).tokens[0], doc.tokens[0]);
        }
      }
      listed += cell.size();
    }
  }
  EXPECT_EQ(listed, c->num_documents());
  ASSERT_EQ(c->DocumentsAt(streams[0], 5).size(), 3u);
  EXPECT_EQ(c->document(c->DocumentsAt(streams[0], 5)[0]).tokens[0], 2u);
  EXPECT_EQ(c->document(c->DocumentsAt(streams[0], 5)[2]).tokens[0], 11u);

  // Re-filed, the collection evicts as an id prefix again.
  ASSERT_TRUE(c->EvictBefore(3).ok());
  EXPECT_EQ(c->doc_id_base(), 8u);  // base 1 + the 7 docs at times 1..2
  EXPECT_EQ(c->documents().front().time, 3);
}

TEST(CollectionRetention, SortByTimeKeepsIdsOfOrderedCollection) {
  // Every Append-driven collection is already in time order; the re-file
  // is then a no-op and every handed-out DocId stays valid.
  Collection c = MakeRollbackFixture();
  ASSERT_TRUE(c.EvictBefore(1).ok());
  Snapshot snap;
  snap.push_back(SnapshotDocument{1, {0}});
  snap.push_back(SnapshotDocument{0, {1}});
  ASSERT_TRUE(c.Append(std::move(snap)).ok());
  const Collection before = c;
  c.SortByTime();
  ExpectSameState(c, before);
}

TEST(CollectionRetention, EvictBeforeKeepsSurvivorIdsAndAdvancesBase) {
  // Eviction drops the id prefix below the new doc_id_base(); callers read
  // the new base and window from the collection.
  auto c = Collection::Create(4);
  ASSERT_TRUE(c.ok());
  StreamId s = c->AddStream("A", {}, {});
  TermId w = c->mutable_vocabulary()->Intern("w");
  for (Timestamp t = 0; t < 4; ++t) {
    ASSERT_TRUE(c->AddDocument(s, t, {w}).ok());
  }
  ASSERT_TRUE(c->EvictBefore(3).ok());
  EXPECT_EQ(c->window_start(), 3);
  EXPECT_EQ(c->doc_id_base(), 3u);
  EXPECT_EQ(c->num_documents(), 1u);
  // The surviving document really did keep its pre-eviction id.
  EXPECT_EQ(c->document(3).time, 3);
  EXPECT_EQ(c->DocumentsAt(s, 3), std::vector<DocId>{3});

  // A no-op cutoff moves nothing.
  const Collection before = *c;
  ASSERT_TRUE(c->EvictBefore(1).ok());
  ExpectSameState(*c, before);
}

TEST(CollectionRetention, AddStreamAfterEvictionCoversTheWindow) {
  auto c = Collection::Create(6);
  ASSERT_TRUE(c.ok());
  c->AddStream("A", {}, {});
  ASSERT_TRUE(c->EvictBefore(4).ok());
  StreamId late = c->AddStream("B", {}, {});
  // The late stream's per-time slots must span exactly the retained window.
  EXPECT_EQ(c->DocumentsAt(late, 4).size(), 0u);
  EXPECT_EQ(c->DocumentsAt(late, 5).size(), 0u);
  TermId w = c->mutable_vocabulary()->Intern("w");
  ASSERT_TRUE(c->AddDocument(late, 5, {w}).ok());
  EXPECT_EQ(c->DocumentsAt(late, 5).size(), 1u);
}

TEST(CollectionRollback, AppendRoundTripRestoresEverything) {
  Collection c = MakeRollbackFixture();
  const Collection before = c;
  const Timestamp old_timeline = c.timeline_length();
  const size_t old_docs = c.num_documents();

  Snapshot snap;
  snap.push_back(SnapshotDocument{0, {0, 1}});
  snap.push_back(SnapshotDocument{1, {1}});
  ASSERT_TRUE(c.Append(std::move(snap)).ok());
  ASSERT_TRUE(c.Append({}).ok());  // rollback spans multiple appends too

  c.RollbackAppend(old_timeline, old_docs);
  ExpectSameState(c, before);
}

TEST(CollectionRollback, EvictRoundTripFastPath) {
  Collection c = MakeRollbackFixture();
  const Collection before = c;

  CollectionEvictUndo undo;
  ASSERT_TRUE(c.EvictBefore(2, &undo).ok());
  ASSERT_EQ(c.num_documents(), 1u);
  ASSERT_TRUE(undo.applied);

  c.RollbackEvict(std::move(undo));
  ExpectSameState(c, before);
}

TEST(CollectionRollback, EvictRoundTripAfterSortByTime) {
  auto created = Collection::Create(4);
  ASSERT_TRUE(created.ok());
  Collection c = std::move(*created);
  StreamId s = c.AddStream("A", {}, {});
  TermId w = c.mutable_vocabulary()->Intern("w");
  // Out-of-order history, re-filed: the undo holds only the evicted prefix
  // and the rollback restores the re-filed state exactly.
  ASSERT_TRUE(c.AddDocument(s, 3, {w}).ok());
  ASSERT_TRUE(c.AddDocument(s, 0, {w, w}).ok());
  ASSERT_TRUE(c.AddDocument(s, 2, {w}).ok());
  c.SortByTime();
  const Collection before = c;

  CollectionEvictUndo undo;
  ASSERT_TRUE(c.EvictBefore(2, &undo).ok());
  ASSERT_TRUE(undo.applied);
  EXPECT_EQ(undo.documents.size(), 1u);
  EXPECT_EQ(c.doc_id_base(), 1u);

  c.RollbackEvict(std::move(undo));
  ExpectSameState(c, before);
}

TEST(CollectionRollback, UnappliedUndoIsANoOp) {
  Collection c = MakeRollbackFixture();
  const Collection before = c;
  CollectionEvictUndo undo;  // never handed to an eviction
  c.RollbackEvict(std::move(undo));
  ExpectSameState(c, before);
}

TEST(CollectionRetention, OutOfRangeCutoffLeavesStateUntouched) {
  Collection c = MakeRollbackFixture();
  const Collection before = c;
  CollectionEvictUndo undo;
  ASSERT_TRUE(c.EvictBefore(c.timeline_length() + 1, &undo).IsOutOfRange());
  // A defined no-op: unapplied undo and bitwise-unchanged state.
  EXPECT_FALSE(undo.applied);
  ExpectSameState(c, before);
}

TEST(Collection, MdsProjectionRequiresStreams) {
  auto c = Collection::Create(2);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->ProjectStreamsWithMds().IsFailedPrecondition());
}

TEST(Collection, MdsProjectionPreservesNeighborhoods) {
  auto c = Collection::Create(2);
  ASSERT_TRUE(c.ok());
  c->AddStream("London", GeoPoint{51.51, -0.13}, {});
  c->AddStream("Paris", GeoPoint{48.86, 2.35}, {});
  c->AddStream("Tokyo", GeoPoint{35.68, 139.69}, {});
  ASSERT_TRUE(c->ProjectStreamsWithMds().ok());
  auto pos = c->StreamPositions();
  double lp = EuclideanDistance(pos[0], pos[1]);
  double lt = EuclideanDistance(pos[0], pos[2]);
  EXPECT_LT(lp, lt);
}

}  // namespace
}  // namespace stburst
