// The Topix-replay feed: the benchmark's live traffic, built from the
// fixed-seed Topix simulator with no download.
//
// History is weeks [0, kHistoryWeeks) of corpus(seed), filed in time order.
// Time order matters: FeedRuntime's eviction keeps DocIds only when the
// collection is time-sorted, and the simulator files documents per event,
// so an unsorted history would send every tick's search update down the
// renumbering rebuild path instead of the incremental one a live feed takes.
// Ticks are the remaining weeks of corpus(seed), then every week of corpora
// seed+1, seed+2, ... for as long as the run needs.

#ifndef PERFBENCH_FEED_H_
#define PERFBENCH_FEED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stburst/common/statusor.h"
#include "stburst/gen/topix_sim.h"
#include "stburst/stream/collection.h"

namespace perfbench {

/// Weeks of corpus(seed) filed as history; also the retention window.
inline constexpr stburst::Timestamp kHistoryWeeks = 24;

/// The repository's standard Topix configuration (48 weeks, ~150k
/// documents, 20,021 terms) at `seed`.
stburst::TopixOptions CorpusOptions(uint64_t seed);

/// Re-files `corpus` time-sorted (week, then stream, then the corpus's own
/// order), keeping weeks [0, weeks). Streams and vocabulary ids carry over.
stburst::StatusOr<stburst::Collection> TimeSortedPrefix(
    const stburst::Collection& corpus, stburst::Timestamp weeks);

/// One tick's documents, flattened so that a long run's pre-generated
/// ticks cost about their tokens in memory: document i comes from
/// streams[i] and holds tokens[offsets[i], offsets[i + 1]).
struct PackedSnapshot {
  std::vector<stburst::StreamId> streams;
  std::vector<uint32_t> offsets{0};
  std::vector<stburst::TermId> tokens;

  size_t size() const { return streams.size(); }

  /// The snapshot FeedRuntime ingests. Documents carry kNoEvent: the
  /// simulator's per-event labels repeat within a week and a stream, and
  /// FeedRuntime rejects repeated event reports under kRejectTick.
  stburst::Snapshot Unpack() const;
};

/// Week `week` of `corpus` as one tick, in (stream, corpus) order.
PackedSnapshot WeekSnapshot(const stburst::Collection& corpus,
                            stburst::Timestamp week);

struct ReplayFeed {
  stburst::Collection history;
  std::vector<PackedSnapshot> ticks;
  /// The query terms of the simulator's 18 major events.
  std::vector<std::vector<stburst::TermId>> event_queries;
};

/// Builds the history and at least `min_ticks` ticks for `seed`. Fails when
/// a later corpus's vocabulary or stream set differs from corpus(seed):
/// ticks carry term ids, so they must mean the same terms in every corpus.
stburst::StatusOr<ReplayFeed> BuildReplayFeed(uint64_t seed, size_t min_ticks);

/// Canonical byte encoding of a feed (streams, vocabulary, history, ticks,
/// event queries) — what "the same feed" means.
std::string SerializeFeed(const ReplayFeed& feed);

}  // namespace perfbench

#endif  // PERFBENCH_FEED_H_
