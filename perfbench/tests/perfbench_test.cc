// Tests for the benchmark's own code: the tail-percentile rule, self-time
// subtraction, open-loop lateness accounting, and the feed generator's
// determinism.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "feed.h"
#include "open_loop.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(TailPercentile, NeedsMoreThanTenSamples) {
  EXPECT_EQ(TailPercentile(0), -1);
  EXPECT_EQ(TailPercentile(10), -1);
  EXPECT_EQ(TailPercentile(11), 9);
  EXPECT_EQ(TailPercentile(30), 66);
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(40000), 99);
}

TEST(TailPercentile, IsTheHighestWithTenBeyond) {
  for (size_t n = 11; n <= 3000; ++n) {
    const int q = TailPercentile(n);
    ASSERT_GE(q, 0);
    EXPECT_GE(n - NearestRank(q, n), kTailBeyond) << "n=" << n;
    if (q < 100) {
      EXPECT_LT(n - NearestRank(q + 1, n), kTailBeyond) << "n=" << n;
    }
  }
}

TEST(Summarize, MedianAndTailByNearestRank) {
  std::vector<double> samples;
  for (int i = 30; i >= 1; --i) samples.push_back(i);
  const Summary s = Summarize(samples);
  EXPECT_EQ(s.n, 30u);
  EXPECT_EQ(s.p50, 15.0);
  EXPECT_TRUE(s.tail_qualified);
  EXPECT_EQ(s.tail_pct, 66);
  EXPECT_EQ(s.tail, 20.0);  // ten samples (21..30) lie beyond it

  const Summary few = Summarize({3.0, 1.0, 2.0});
  EXPECT_FALSE(few.tail_qualified);
  EXPECT_EQ(few.tail_pct, 0);
  EXPECT_EQ(few.tail, 1.0);
}

TEST(Summarize, TailDoesNotJumpBelowElevenSamples) {
  // At 11 samples the tail percentile's nearest rank is 1, so dropping to 10
  // samples must keep reporting the smallest.
  std::vector<double> eleven;
  for (int i = 1; i <= 11; ++i) eleven.push_back(i);
  std::vector<double> ten(eleven.begin(), eleven.end() - 1);
  EXPECT_EQ(Summarize(eleven).tail, 1.0);
  EXPECT_EQ(Summarize(ten).tail, 1.0);
}

Span MakeSpan(int32_t parent, int64_t start, int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimes, SubtractsTheUnionOfClippedChildren) {
  const std::vector<Span> spans = {
      MakeSpan(-1, 0, 100),  // root
      MakeSpan(0, 10, 30),   // overlaps the next child: counted once
      MakeSpan(0, 20, 50),
      MakeSpan(0, 90, 120),  // clipped to the root's end
      MakeSpan(2, 25, 35),   // grandchild: only its parent loses it
      MakeSpan(-1, 200, 260),
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - (40 + 10));
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30 - 10);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);
  EXPECT_EQ(self[5], 60);
}

TEST(SelfTimes, AdjacentChildrenCoverTheirParent) {
  const std::vector<Span> spans = {MakeSpan(-1, 0, 10), MakeSpan(0, 0, 4),
                                   MakeSpan(0, 4, 10)};
  EXPECT_EQ(SelfTimes(spans)[0], 0);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer off(false);
  const int32_t none = off.Begin("x", 1);
  EXPECT_EQ(none, -1);
  off.End(none);
  EXPECT_TRUE(off.spans().empty());
  Tracer on(true);
  const int32_t outer = on.Begin("outer", 7);
  on.End(on.Begin("inner", 7, outer));
  on.End(outer);
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_LE(on.spans()[0].start_ns, on.spans()[1].start_ns);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[1].end_ns);
}

TEST(OpenLoop, StallIsChargedToEveryRequestItDelays) {
  int64_t now = 0;
  auto clock = [&] { return now; };
  auto wait_until = [&](int64_t t) { now = std::max(now, t); };
  // Request 0 stalls for 3.5 intervals; every other request takes 1.
  auto op = [&](size_t k) { now += k == 0 ? 35 : 1; };
  size_t issued = 0;
  auto stop = [&] { return issued++ == 6; };
  std::vector<OpenLoopRecord> records;
  RunOpenLoop(OpenLoopSchedule{0, 10}, clock, wait_until, op, stop, &records);

  ASSERT_EQ(records.size(), 6u);
  const int64_t want_late[] = {0, 25, 16, 7, 0, 0};
  const int64_t want_latency[] = {35, 26, 17, 8, 1, 1};
  for (size_t k = 0; k < records.size(); ++k) {
    EXPECT_EQ(records[k].due_ns, static_cast<int64_t>(k) * 10) << k;
    EXPECT_EQ(records[k].lateness_ns(), want_late[k]) << k;
    EXPECT_EQ(records[k].latency_ns(), want_latency[k]) << k;
  }
}

TEST(OpenLoop, OnTimeRequestsWaitForTheirDueTime) {
  int64_t now = 0;
  int waits = 0;
  auto clock = [&] { return now; };
  auto wait_until = [&](int64_t t) {
    ++waits;
    now = t;
  };
  auto op = [&](size_t) { now += 2; };
  size_t issued = 0;
  auto stop = [&] { return issued++ == 3; };
  std::vector<OpenLoopRecord> records;
  RunOpenLoop(OpenLoopSchedule{5, 10}, clock, wait_until, op, stop, &records);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(waits, 3);
  for (const OpenLoopRecord& r : records) {
    EXPECT_EQ(r.lateness_ns(), 0);
    EXPECT_EQ(r.latency_ns(), 2);
  }
}

TEST(ReplayFeed, SameSeedSameBytes) {
  // 30 ticks reach past corpus(seed) into corpus(seed + 1).
  auto a = BuildReplayFeed(3, 30);
  auto b = BuildReplayFeed(3, 30);
  auto c = BuildReplayFeed(4, 30);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  ASSERT_GE(a->ticks.size(), 30u);
  EXPECT_EQ(SerializeFeed(*a), SerializeFeed(*b));
  EXPECT_NE(SerializeFeed(*a), SerializeFeed(*c));
}

TEST(ReplayFeed, HistoryIsTimeSortedAndTicksCarryNoEvents) {
  auto feed = BuildReplayFeed(5, 1);
  ASSERT_TRUE(feed.ok()) << feed.status().ToString();
  const stburst::Collection& h = feed->history;
  EXPECT_EQ(h.timeline_length(), kHistoryWeeks);
  ASSERT_GT(h.num_documents(), 0u);
  for (size_t i = 1; i < h.documents().size(); ++i) {
    ASSERT_LE(h.documents()[i - 1].time, h.documents()[i].time) << i;
  }
  EXPECT_EQ(feed->ticks.size(),
            static_cast<size_t>(48 - kHistoryWeeks));  // the rest of corpus(5)
  EXPECT_EQ(feed->event_queries.size(), 18u);
  for (const PackedSnapshot& tick : feed->ticks) {
    const stburst::Snapshot snap = tick.Unpack();
    EXPECT_FALSE(snap.empty());
    for (const auto& doc : snap) EXPECT_EQ(doc.event_id, stburst::kNoEvent);
  }
}

}  // namespace
}  // namespace perfbench
