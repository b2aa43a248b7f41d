// Tests for STComb (core/stcomb).

#include "stburst/core/stcomb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stburst/common/random.h"
#include "stburst/core/max_clique.h"

namespace stburst {
namespace {

StreamInterval SI(StreamId s, Timestamp a, Timestamp b, double w) {
  return StreamInterval{s, Interval{a, b}, w};
}

TEST(StComb, MineFromIntervalsSingleClique) {
  StComb miner;
  auto patterns = miner.MineFromIntervals({
      SI(0, 2, 9, 0.8),
      SI(1, 4, 10, 0.4),
      SI(2, 3, 8, 0.3),
      SI(3, 5, 9, 0.6),
  });
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_NEAR(patterns[0].score, 2.1, 1e-12);
  EXPECT_EQ(patterns[0].streams, (std::vector<StreamId>{0, 1, 2, 3}));
  // Common segment of [2,9],[4,10],[3,8],[5,9] is [5,8].
  EXPECT_EQ(patterns[0].timeframe, (Interval{5, 8}));
}

TEST(StComb, IteratedCliquesAreStreamDisjointPerRound) {
  // Two well-separated groups of overlapping intervals.
  StComb miner;
  auto patterns = miner.MineFromIntervals({
      SI(0, 0, 5, 1.0),
      SI(1, 2, 6, 1.0),
      SI(2, 20, 25, 0.7),
      SI(3, 22, 28, 0.7),
  });
  ASSERT_EQ(patterns.size(), 2u);
  EXPECT_NEAR(patterns[0].score, 2.0, 1e-12);
  EXPECT_EQ(patterns[0].streams, (std::vector<StreamId>{0, 1}));
  EXPECT_NEAR(patterns[1].score, 1.4, 1e-12);
  EXPECT_EQ(patterns[1].streams, (std::vector<StreamId>{2, 3}));
}

TEST(StComb, MaxPatternsCap) {
  StCombOptions opts;
  opts.max_patterns = 1;
  StComb miner(opts);
  auto patterns = miner.MineFromIntervals({
      SI(0, 0, 5, 1.0),
      SI(1, 20, 25, 0.7),
  });
  EXPECT_EQ(patterns.size(), 1u);
}

TEST(StComb, MinStreamsFiltersSingletons) {
  StCombOptions opts;
  opts.min_streams = 2;
  StComb miner(opts);
  auto patterns = miner.MineFromIntervals({
      SI(0, 0, 5, 1.0),
      SI(1, 3, 8, 0.5),
      SI(2, 20, 22, 2.0),  // lone burst, filtered
  });
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].streams.size(), 2u);
}

TEST(StComb, EmptyInput) {
  StComb miner;
  EXPECT_TRUE(miner.MineFromIntervals({}).empty());
}

TermSeries MakeSeriesWithJointBurst() {
  // 6 streams, 60 timestamps; streams 1, 2, 3 burst jointly on [20, 29].
  TermSeries series(6, 60);
  Rng rng(5);
  for (StreamId s = 0; s < 6; ++s) {
    for (Timestamp t = 0; t < 60; ++t) {
      series.set(s, t, 0.8 + 0.4 * rng.NextDouble());
    }
  }
  for (StreamId s = 1; s <= 3; ++s) {
    for (Timestamp t = 20; t < 30; ++t) series.add(s, t, 15.0);
  }
  return series;
}

TEST(StComb, ExtractStreamIntervalsFindsBurstyStreams) {
  TermSeries series = MakeSeriesWithJointBurst();
  StCombOptions opts;
  opts.min_interval_burstiness = 0.2;
  StComb miner(opts);
  auto intervals = miner.ExtractStreamIntervals(series);
  ASSERT_EQ(intervals.size(), 3u);
  for (const auto& si : intervals) {
    EXPECT_GE(si.stream, 1u);
    EXPECT_LE(si.stream, 3u);
    EXPECT_GT(si.burstiness, 0.2);
    // The detected interval must cover the bulk of the planted burst.
    EXPECT_LE(si.interval.start, 22);
    EXPECT_GE(si.interval.end, 27);
  }
}

TEST(StComb, MinePatternsEndToEnd) {
  TermSeries series = MakeSeriesWithJointBurst();
  StCombOptions opts;
  opts.min_interval_burstiness = 0.2;
  StComb miner(opts);
  auto patterns = miner.MinePatterns(series);
  ASSERT_GE(patterns.size(), 1u);
  const auto& top = patterns[0];
  EXPECT_EQ(top.streams, (std::vector<StreamId>{1, 2, 3}));
  EXPECT_TRUE(top.timeframe.Intersects(Interval{20, 29}));
  // Patterns are sorted by descending score.
  for (size_t i = 1; i < patterns.size(); ++i) {
    EXPECT_GE(patterns[i - 1].score, patterns[i].score);
  }
}

TEST(StComb, PatternsScoreEqualsMemberSum) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<StreamInterval> intervals;
    size_t streams = 2 + rng.NextUint64(6);
    for (StreamId s = 0; s < streams; ++s) {
      // A few non-overlapping intervals per stream.
      Timestamp t = 0;
      while (t < 80) {
        Timestamp a = t + static_cast<Timestamp>(rng.NextUint64(10));
        Timestamp b = a + static_cast<Timestamp>(rng.NextUint64(12));
        if (b >= 100) break;
        intervals.push_back(SI(s, a, b, rng.Uniform(0.05, 1.0)));
        t = b + 2;
      }
    }
    StComb miner;
    auto patterns = miner.MineFromIntervals(intervals);
    double total_pattern_score = 0.0;
    for (const auto& p : patterns) {
      total_pattern_score += p.score;
      EXPECT_TRUE(p.timeframe.valid());
      // Streams unique within a pattern.
      for (size_t i = 1; i < p.streams.size(); ++i) {
        EXPECT_LT(p.streams[i - 1], p.streams[i]);
      }
    }
    // Every interval is consumed at most once across rounds.
    double total_interval_score = 0.0;
    for (const auto& si : intervals) total_interval_score += si.burstiness;
    EXPECT_LE(total_pattern_score, total_interval_score + 1e-9);
  }
}

// §3's algorithm as stated: iterate MaxWeightClique over the pool, zeroing
// each reported clique's intervals. MineFromIntervals claims to match it
// exactly. The score is summed over members in ascending index order, the
// order MineFromIntervals folds in (MaxWeightClique's own weight sums in
// hash-map order).
std::vector<CombinatorialPattern> IteratedMaxWeightCliques(
    const std::vector<StreamInterval>& intervals,
    const StCombOptions& options) {
  std::vector<WeightedInterval> pool;
  for (const StreamInterval& si : intervals) {
    pool.push_back(WeightedInterval{si.interval, si.burstiness,
                                    static_cast<int64_t>(si.stream)});
  }
  std::vector<CombinatorialPattern> patterns;
  while (patterns.size() < options.max_patterns) {
    const CliqueResult clique = MaxWeightClique(pool);
    if (clique.empty()) break;
    CombinatorialPattern p;
    for (size_t i = 0; i < clique.members.size(); ++i) {
      const size_t idx = clique.members[i];
      p.score += pool[idx].weight;
      p.streams.push_back(intervals[idx].stream);
      p.timeframe = i == 0 ? pool[idx].interval
                           : p.timeframe.Intersect(pool[idx].interval);
      pool[idx].weight = 0.0;
    }
    std::sort(p.streams.begin(), p.streams.end());
    if (p.streams.size() >= options.min_streams) {
      patterns.push_back(std::move(p));
    }
  }
  std::sort(patterns.begin(), patterns.end(),
            [](const CombinatorialPattern& a, const CombinatorialPattern& b) {
              return a.score > b.score;
            });
  return patterns;
}

TEST(StComb, MineFromIntervalsMatchesIteratedMaxWeightClique) {
  // Randomized pools built to hit every tie path: burstiness on a coarse
  // dyadic grid (many equal weights, and every partial sum exact, so both
  // sweeps compare the same numbers), endpoints from a narrow range (many
  // intervals touching at shared coordinates), several intervals per
  // stream (adjacent or gapped), a few zero-weight and invalid intervals,
  // a few same-stream equal-weight overlaps, and sparse stream ids up to
  // ~10^4. The calls run back to back on this one thread with the
  // stream-id range shrinking and growing, so MineFromIntervals'
  // thread_local scratch carries slots of larger ids from earlier calls.
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(trial);
    const uint64_t id_range = uint64_t{10000} >> (trial % 8);
    const size_t streams = 1 + rng.NextUint64(12);
    std::vector<StreamInterval> intervals;
    for (size_t k = 0; k < streams; ++k) {
      const StreamId s = static_cast<StreamId>(rng.NextUint64(id_range));
      bool taken = false;
      for (const StreamInterval& si : intervals) taken |= si.stream == s;
      if (taken) continue;  // one run of intervals per stream id
      Timestamp t = static_cast<Timestamp>(rng.NextUint64(4));
      const size_t runs = 1 + rng.NextUint64(4);
      for (size_t r = 0; r < runs && t < 24; ++r) {
        const Timestamp end = t + static_cast<Timestamp>(rng.NextUint64(5));
        const double w =
            rng.Bernoulli(0.05) ? 0.0
                                : 0.25 * static_cast<double>(
                                             1 + rng.NextUint64(4));
        intervals.push_back(SI(s, t, end, w));
        t = end + 1 + static_cast<Timestamp>(rng.NextUint64(3));
      }
      if (rng.Bernoulli(0.05)) intervals.push_back(SI(s, 40, 30, 1.0));
      if (rng.Bernoulli(0.15)) {
        // Outside MineFromIntervals' precondition, on purpose: an interval
        // overlapping one of its own stream with the same burstiness pins
        // the per-stream tie rule (the smaller pool index wins), which
        // MaxWeightClique defines for overlapping same-tag input.
        const StreamInterval& twin = intervals.back();
        intervals.push_back(SI(s, twin.interval.start, twin.interval.end + 1,
                               twin.burstiness));
      }
    }
    // Interleave streams so pool order is not stream order.
    for (size_t i = intervals.size(); i > 1; --i) {
      std::swap(intervals[i - 1], intervals[rng.NextUint64(i)]);
    }
    StCombOptions options;
    if (trial % 5 == 1) options.max_patterns = 1 + rng.NextUint64(3);
    if (trial % 5 == 2) options.min_streams = 2;

    const std::vector<CombinatorialPattern> want =
        IteratedMaxWeightCliques(intervals, options);
    const std::vector<CombinatorialPattern> got =
        StComb(options).MineFromIntervals(intervals);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].streams, want[i].streams) << "pattern " << i;
      EXPECT_EQ(got[i].timeframe, want[i].timeframe) << "pattern " << i;
      EXPECT_EQ(got[i].score, want[i].score) << "pattern " << i;
    }
  }
}

}  // namespace
}  // namespace stburst
