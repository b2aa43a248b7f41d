// One published generation of the search read plane.
//
// A tick that edits search state builds the next IndexSnapshot off to the
// side and publishes it with one atomic swap; readers hold a
// shared_ptr<const IndexSnapshot> and query it lock-free for as long as
// they like. The next index is InvertedIndex::Successor of the current one:
// it shares every frozen TermList except those of the terms the tick
// re-scored, so a generation costs O(V) pointer copies plus the changed
// lists, and freeing a superseded one frees only what its successor
// replaced. Dirty terms carry all eviction — a term with a posting on an
// evicted document lost frequency postings, so it is re-scored from the
// retained documents; only the terms a degraded tick defers instead get a
// copy of their list filtered to doc >= doc_id_base. The metadata alongside
// the index pins down what "internally consistent" means for a result
// computed against this snapshot: its generation, and the window the
// postings cover.

#ifndef STBURST_INDEX_INDEX_SNAPSHOT_H_
#define STBURST_INDEX_INDEX_SNAPSHOT_H_

#include <cstdint>

#include "stburst/index/inverted_index.h"
#include "stburst/stream/types.h"

namespace stburst {

/// An immutable, finalized search index plus the window metadata it was
/// built against. Never mutated after publication — ticks publish a
/// successor instead — so concurrent readers need no synchronization
/// beyond holding the shared_ptr.
struct IndexSnapshot {
  InvertedIndex index;

  /// == index.generation(); strictly increasing across published
  /// snapshots of one runtime. Query results computed against this
  /// snapshot carry it (TopKResult::generation), which is what keys the
  /// query-result cache.
  uint64_t generation = 0;

  /// First retained timestamp of the window the postings cover.
  Timestamp window_start = 0;

  /// Smallest live DocId: every posting's doc is >= doc_id_base.
  DocId doc_id_base = 0;
};

}  // namespace stburst

#endif  // STBURST_INDEX_INDEX_SNAPSHOT_H_
