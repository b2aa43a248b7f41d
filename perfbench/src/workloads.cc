#include "workloads.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "feed.h"
#include "open_loop.h"
#include "stats.h"
#include "stburst/common/parallel.h"
#include "stburst/common/random.h"
#include "stburst/common/string_util.h"
#include "stburst/core/batch_miner.h"
#include "stburst/core/expected.h"
#include "stburst/core/stcomb.h"
#include "stburst/core/stlocal.h"
#include "stburst/index/pattern_index.h"
#include "stburst/index/search_engine.h"
#include "stburst/index/threshold_algorithm.h"
#include "stburst/stream/feed_runtime.h"
#include "trace.h"

namespace perfbench {
namespace {

using stburst::BatchMineResult;
using stburst::BatchMinerOptions;
using stburst::BurstySearchEngine;
using stburst::Collection;
using stburst::FeedRuntime;
using stburst::FeedRuntimeOptions;
using stburst::FeedTickStats;
using stburst::FrequencyIndex;
using stburst::PatternIndex;
using stburst::Rng;
using stburst::Snapshot;
using stburst::Status;
using stburst::StatusOr;
using stburst::StringPrintf;
using stburst::TermId;
using stburst::TermPatterns;
using stburst::TopKResult;

// ---------------------------------------------------------------- settings
// One process, at most nproc (4) threads: the runtime's pool is the calling
// thread plus one worker, and feed_search adds two reader threads.
constexpr size_t kPoolThreads = 2;
constexpr size_t kRefreshBudget = 64;
constexpr double kMinIntervalBurstiness = 0.1;
constexpr size_t kReaders = 2;
// Far below saturation (one uncached query takes ~20 us), so the readers
// measure latency under live ticks, not queueing.
constexpr double kQueriesPerSecond = 2000.0;
constexpr size_t kTopK = 10;
// 18 event queries plus Zipf background pairs; the cache holds the whole
// pool, so repeats within a generation hit.
constexpr size_t kQueryPoolSize = 256;
constexpr double kQueryZipf = 1.0;
constexpr size_t kSearchCacheEntries = 1024;
// Readers sleep (with 1 us timer slack) until this close to a query's due
// time, then spin, so sleep overshoot is not charged to the library as
// query latency.
constexpr int64_t kSpinNs = 30'000;
constexpr int kSetupRepeats = 7;
// The index build takes ~0.1 s, so batch_mine repeats it more often for a
// set-up median as steady as the feeds'.
constexpr int kIndexBuildRepeats = 21;
// STLocal over the whole vocabulary takes ~15 s at two threads; the sample
// keeps a batch pass near two seconds with STLocal its largest step.
constexpr size_t kStLocalSample = 1280;
constexpr size_t kSpotCheckTerms = 8;
// Upper bound on tick throughput the feed is generated for (ticks per
// measured second); a faster program runs out of ticks and stops early.
constexpr double kMaxTicksPerSecond = 8.0;

// Restarts the process's peak-RSS counter (VmHWM), so the peak read at
// the end covers set-up and the run, not the transient memory of input
// generation. The generated inputs themselves stay resident and count.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// Peak resident memory since ResetPeakRss, in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;  // kB
    }
  }
  rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

void Note(RunReport* report, std::string line) {
  report->notes.push_back(std::move(line));
}

// A failed output check, named in the notes. `ops` is how many attempted
// operations it shows to be wrong: the live queries it caught, or 1 for a
// check of the state the final tick or pass left.
void Fail(RunReport* report, uint64_t ops, const std::string& what) {
  report->correct = false;
  report->failed += ops;
  Note(report, "CHECK FAILED: " + what);
}

// -------------------------------------------------------------- query pool
using QueryPool = std::vector<std::vector<TermId>>;

QueryPool BuildQueryPool(const stburst::Vocabulary& vocab,
                         const std::vector<std::vector<TermId>>& events,
                         uint64_t seed) {
  QueryPool pool;
  for (const auto& q : events) {
    if (!q.empty()) pool.push_back(q);
  }
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  const size_t background = CorpusOptions(seed).background_vocab;
  stburst::ZipfSampler terms(background, CorpusOptions(seed).vocab_zipf);
  while (pool.size() < kQueryPoolSize) {
    const size_t a = terms.Sample(&rng);
    const size_t b = terms.Sample(&rng);
    if (a == b) continue;
    const TermId ta = vocab.Lookup(StringPrintf("bg%04zu", a));
    const TermId tb = vocab.Lookup(StringPrintf("bg%04zu", b));
    if (ta == stburst::kInvalidTerm || tb == stburst::kInvalidTerm) continue;
    pool.push_back({ta, tb});
  }
  // Popularity rank is independent of how a query was built.
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.NextUint64(i)]);
  }
  return pool;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Everything a top-k answer promises: documents, scores, tie order, and the
// TA access counts.
uint64_t Digest(const TopKResult& r) {
  uint64_t h = Mix(r.docs.size(), r.sorted_accesses);
  h = Mix(h, r.random_accesses);
  for (const auto& d : r.docs) h = Mix(Mix(h, d.doc), DoubleBits(d.score));
  return h;
}

bool SameDocs(const TopKResult& a, const TopKResult& b) {
  return a.docs == b.docs;
}

// TA against an exhaustive merge: equal scores at every rank, and equal
// documents at every rank that scores above the k-th score. Among documents
// tied at the k-th score the two can keep different ones: ThresholdTopK
// stops once the k-th score reaches its threshold, so a tied document it
// has not read yet is dropped even when its id is smaller, against the
// ascending-id tie order TopKResult documents. The workload reports those
// queries as a finding.
bool SameAboveBoundary(const TopKResult& a, const TopKResult& b) {
  if (a.docs.size() != b.docs.size()) return false;
  if (a.docs.empty()) return true;
  const double kth = b.docs.back().score;
  for (size_t i = 0; i < a.docs.size(); ++i) {
    if (a.docs[i].score != b.docs[i].score) return false;
    if (b.docs[i].score > kth && a.docs[i].doc != b.docs[i].doc) return false;
  }
  return true;
}

bool SameTopK(const TopKResult& a, const TopKResult& b) {
  return SameDocs(a, b) && a.sorted_accesses == b.sorted_accesses &&
         a.random_accesses == b.random_accesses;
}

// ------------------------------------------------------------- result check
bool SameSlot(const TermPatterns& a, const TermPatterns& b) {
  if (a.mined != b.mined || a.combinatorial.size() != b.combinatorial.size() ||
      a.regional.size() != b.regional.size()) {
    return false;
  }
  for (size_t i = 0; i < a.combinatorial.size(); ++i) {
    const auto& x = a.combinatorial[i];
    const auto& y = b.combinatorial[i];
    if (x.streams != y.streams || !(x.timeframe == y.timeframe) ||
        x.score != y.score) {
      return false;
    }
  }
  for (size_t i = 0; i < a.regional.size(); ++i) {
    const auto& x = a.regional[i];
    const auto& y = b.regional[i];
    if (x.streams != y.streams || !(x.timeframe == y.timeframe) ||
        x.score != y.score) {
      return false;
    }
  }
  return true;
}

BatchMinerOptions CombinatorialMinerOptions() {
  BatchMinerOptions o;
  o.stcomb.min_interval_burstiness = kMinIntervalBurstiness;
  return o;
}

// What a standalone StComb mine of `term` gives over the window
// [origin, origin + width), timeframes made absolute — the slot MineAllTerms
// produces for an index retaining exactly that window.
TermPatterns MineTermOverWindow(const FrequencyIndex& index, TermId term,
                                stburst::Timestamp origin,
                                stburst::Timestamp width,
                                const stburst::StComb& stcomb) {
  TermPatterns slot;
  slot.term = term;
  const auto& postings = index.postings(term);
  if (postings.empty()) return slot;
  slot.mined = true;
  stburst::TermSeries series(index.num_streams(), width);
  for (const auto& p : postings) {
    if (p.time < origin || p.time >= origin + width) {
      // Postings outside the window it was mined under: the slot is stale
      // in a way the staleness contract does not allow.
      slot.mined = false;
      return slot;
    }
    series.add(p.stream, p.time - origin, p.count);
  }
  slot.combinatorial = stcomb.MinePatterns(series);
  for (auto& pattern : slot.combinatorial) {
    pattern.timeframe.start += origin;
    pattern.timeframe.end += origin;
  }
  return slot;
}

struct ResultComparison {
  size_t fresh = 0;          // slots (re-)mined by the final tick
  size_t fresh_differ = 0;   // ... differing from MineAllTerms
  size_t quiet = 0;          // slots last mined by an earlier tick
  size_t quiet_differ = 0;   // ... differing from MineAllTerms (reported)
  size_t stale_differ = 0;   // slots differing from a mine of their window
};

// Slots the final tick (re-)mined must be bit-identical to MineAllTerms over
// the retained index. A quiet slot keeps the patterns of its last mine (the
// staleness contract of RemineTerms and FeedRuntime), so every slot must be
// bit-identical to a standalone StComb mine of the window it was last mined
// under (same length as today's: the history is exactly one window, so
// every tick slides it by one); how many quiet slots a fresh mine would now
// change is reported.
ResultComparison CompareResult(const FeedRuntime& runtime,
                               const BatchMineResult& oracle) {
  ResultComparison c;
  const BatchMineResult& got = runtime.result();
  if (got.terms.size() != oracle.terms.size()) {
    c.fresh_differ = std::max<size_t>(
        1, std::max(got.terms.size(), oracle.terms.size()));
    return c;
  }
  const stburst::StComb stcomb(CombinatorialMinerOptions().stcomb);
  const stburst::Timestamp width = runtime.index().window_length();
  const stburst::Timestamp end = runtime.index().timeline_length();
  for (TermId t = 0; t < got.terms.size(); ++t) {
    const stburst::Timestamp stale = runtime.staleness(t);
    const bool same_as_oracle = SameSlot(got.terms[t], oracle.terms[t]);
    if (stale == 0) {
      ++c.fresh;
      c.fresh_differ += !same_as_oracle;
    } else {
      ++c.quiet;
      c.quiet_differ += !same_as_oracle;
    }
    const TermPatterns want = MineTermOverWindow(
        runtime.index(), t, end - stale - width, width, stcomb);
    c.stale_differ += !SameSlot(got.terms[t], want);
  }
  return c;
}

size_t CountPostingMismatches(const FrequencyIndex& a, const FrequencyIndex& b) {
  if (a.num_terms() != b.num_terms() || a.window_start() != b.window_start() ||
      a.timeline_length() != b.timeline_length()) {
    return std::max<size_t>(1, std::max(a.num_terms(), b.num_terms()));
  }
  size_t bad = 0;
  for (TermId t = 0; t < a.num_terms(); ++t) {
    const auto& pa = a.postings(t);
    const auto& pb = b.postings(t);
    bool same = pa.size() == pb.size();
    for (size_t i = 0; same && i < pa.size(); ++i) {
      same = pa[i].stream == pb[i].stream && pa[i].time == pb[i].time &&
             pa[i].count == pb[i].count;
    }
    if (!same) ++bad;
  }
  return bad;
}

PatternIndex CombinatorialPatterns(const BatchMineResult& result) {
  PatternIndex patterns;
  for (TermId t = 0; t < result.terms.size(); ++t) {
    for (const auto& p : result.terms[t].combinatorial) {
      patterns.AddCombinatorial(t, p);
    }
  }
  return patterns;
}


// ------------------------------------------------------------ span helpers
// Self times of the spans named `name`, in ms, in recording order.
std::vector<double> SelfMs(const Tracer& tracer, const char* name) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) == 0) out.push_back(NsToMs(self[i]));
  }
  return out;
}

// Smallest share of a root span's wall time that its children cover.
double MinCoverage(const Tracer& tracer, const char* root) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  double worst = 1.0;
  bool any = false;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, root) != 0) continue;
    const int64_t d = spans[i].duration_ns();
    if (d <= 0) continue;
    any = true;
    worst = std::min(worst, 1.0 - static_cast<double>(self[i]) /
                                      static_cast<double>(d));
  }
  return any ? worst : 0.0;
}

void DumpSpans(const RunOptions& options,
               const std::vector<const Tracer*>& tracers, int64_t origin_ns,
               RunReport* report) {
  if (options.out_dir.empty()) return;
  const std::string path =
      options.out_dir + "/spans-" + options.workload + "-seed" +
      std::to_string(options.seed) + ".jsonl";
  const Status s = WriteSpans(path, tracers, origin_ns);
  Note(report, s.ok() ? "span dump: " + path
                      : "span dump not written: " + s.ToString());
}

// --------------------------------------------------------- per-layer table
// Every per-layer metric, in BENCHMARK.json order. A workload that bypasses
// a layer reports it as 0 (the prediction for that workload is no change).
struct Layers {
  double prepare_ms = 0, refresh_select_ms = 0, stage_ms = 0, commit_ms = 0;
  double docs_per_tick = 0, dirty_terms_per_tick = 0, folded_terms_per_tick = 0;
  double refreshed_terms_per_tick = 0, search_terms_per_tick = 0;
  double phase_coverage_min = 0;
  double search_us = 0, ta_sorted = 0, ta_random = 0;
  double cache_hit_ratio = 0, cache_lookups = 0;
  double query_us_p50 = 0, query_us_tail = 0, gen_late_ms = 0;
  double reader_preemptions = 0;
  double snapshot_postings = 0, generations = 0, freq_postings_mb = 0;
  double history_rows = 0;
  double freq_build_s = 0, stcomb_s = 0, stlocal_s = 0, engine_build_s = 0;
  double stcomb_patterns = 0, stlocal_windows = 0, stlocal_terms = 0;
  double trace_overhead_ms = 0;
};

std::vector<Metric> LayerMetrics(const Layers& l) {
  return {
      {"stream.prepare_ms", l.prepare_ms, "ms"},
      {"stream.refresh_select_ms", l.refresh_select_ms, "ms"},
      {"stream.stage_ms", l.stage_ms, "ms"},
      {"stream.commit_ms", l.commit_ms, "ms"},
      {"stream.docs_per_tick", l.docs_per_tick, "count"},
      {"stream.dirty_terms_per_tick", l.dirty_terms_per_tick, "count"},
      {"history.folded_terms_per_tick", l.folded_terms_per_tick, "count"},
      {"stream.refreshed_terms_per_tick", l.refreshed_terms_per_tick, "count"},
      {"index.search_terms_per_tick", l.search_terms_per_tick, "count"},
      {"harness.phase_coverage_min", l.phase_coverage_min, "ratio"},
      {"index.query_us", l.search_us, "us"},
      {"index.ta_sorted_per_query", l.ta_sorted, "count"},
      {"index.ta_random_per_query", l.ta_random, "count"},
      {"index.cache_hit_ratio", l.cache_hit_ratio, "ratio"},
      {"index.cache_lookups", l.cache_lookups, "count"},
      {"harness.query_us_p50", l.query_us_p50, "us"},
      {"harness.query_us_tail", l.query_us_tail, "us"},
      {"harness.gen_late_ms", l.gen_late_ms, "ms"},
      {"harness.reader_preemptions", l.reader_preemptions, "count"},
      {"index.snapshot_postings", l.snapshot_postings, "count"},
      {"index.generations", l.generations, "count"},
      {"stream.freq_postings_mb", l.freq_postings_mb, "MB"},
      {"history.rows", l.history_rows, "count"},
      {"stream.freq_build_s", l.freq_build_s, "s"},
      {"core.stcomb_s", l.stcomb_s, "s"},
      {"core.stlocal_s", l.stlocal_s, "s"},
      {"index.engine_build_s", l.engine_build_s, "s"},
      {"core.stcomb_patterns", l.stcomb_patterns, "count"},
      {"core.stlocal_windows", l.stlocal_windows, "count"},
      {"core.stlocal_terms", l.stlocal_terms, "count"},
      {"harness.trace_overhead_ms", l.trace_overhead_ms, "ms"},
  };
}

std::string TailNote(const char* what, const Summary& s, const char* unit) {
  return StringPrintf(
      "%s: p50 %.4g %s, tail p%d = %.4g %s over %zu samples%s", what, s.p50,
      unit, s.tail_pct, s.tail, unit, s.n,
      s.tail_qualified ? ""
                       : " (fewer than 11 samples: no percentile has ten "
                         "beyond it, so the tail is p0, the minimum)");
}

// Median over the common prefix of two runs of the same op sequence.
double PrefixMedianDelta(const std::vector<double>& untraced,
                         const std::vector<double>& traced) {
  const size_t m = std::min(untraced.size(), traced.size());
  if (m == 0) return 0.0;
  return Median({traced.begin(), traced.begin() + m}) -
         Median({untraced.begin(), untraced.begin() + m});
}

// ===================================================================== feeds
FeedRuntimeOptions FeedOptions(bool search) {
  FeedRuntimeOptions o;
  o.miner.stcomb.min_interval_burstiness = kMinIntervalBurstiness;
  o.num_threads = kPoolThreads;
  o.retention_window = kHistoryWeeks;
  o.refresh_budget = kRefreshBudget;
  o.history_mode = stburst::HistoryMode::kInMemory;
  if (search) {
    o.search_serving = stburst::SearchServing::kCombinatorial;
    o.search_cache_entries = kSearchCacheEntries;
  }
  return o;
}

struct ReaderState {
  explicit ReaderState(bool trace) : tracer(trace) {}
  Tracer tracer;
  std::vector<uint32_t> sequence;  // pool index of query k (pre-generated)
  std::vector<OpenLoopRecord> records;
  std::vector<uint32_t> query;
  std::vector<uint64_t> generation;
  std::vector<uint64_t> digest;
  std::vector<double> ta_sorted;
  std::vector<double> ta_random;
  double preemptions = 0;  // involuntary context switches of the thread
};

// One measured stretch of a feed: ticks on this thread, readers beside it.
struct FeedPhase {
  explicit FeedPhase(bool trace) : tracer(trace) {}
  Tracer tracer;
  std::vector<double> tick_ms;
  std::vector<FeedTickStats> stats;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::unique_ptr<ReaderState>> readers;
  stburst::QueryCacheStats cache;
  bool ran_out_of_ticks = false;
  // Peak RSS once the window has turned over (see RunFeedPhase).
  double peak_rss_mb = 0;
};

void ReaderLoop(const FeedRuntime* runtime, const QueryPool* pool,
                OpenLoopSchedule schedule, const std::atomic<bool>* stop,
                uint64_t reader, ReaderState* st) {
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  auto clock = [] { return NowNs(); };
  auto wait_until = [](int64_t due) {
    const int64_t ahead = due - NowNs();
    if (ahead > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - kSpinNs));
    }
    while (NowNs() < due) {
    }
  };
  auto op = [&](size_t k) {
    const uint32_t q = st->sequence[k % st->sequence.size()];
    const int32_t span =
        st->tracer.Begin("index.search", (reader << 48) | k);
    const TopKResult r = runtime->Search((*pool)[q], kTopK);
    st->tracer.End(span);
    st->query.push_back(q);
    st->generation.push_back(r.generation);
    st->digest.push_back(Digest(r));
    st->ta_sorted.push_back(static_cast<double>(r.sorted_accesses));
    st->ta_random.push_back(static_cast<double>(r.random_accesses));
  };
  auto stopped = [&] { return stop->load(std::memory_order_acquire); };
  RunOpenLoop(schedule, clock, wait_until, op, stopped, &st->records);
  rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_THREAD, &ru);
  st->preemptions = static_cast<double>(ru.ru_nivcsw);
}

// Runs ticks (and, with a pool, open-loop readers) for `seconds`.
void RunFeedPhase(FeedRuntime* runtime,
                  const std::vector<PackedSnapshot>& ticks,
                  const QueryPool* pool, uint64_t seed, double seconds,
                  FeedPhase* phase) {
  const bool trace = phase->tracer.enabled();
  const size_t per_reader =
      static_cast<size_t>(kQueriesPerSecond / kReaders * seconds * 1.25) + 64;
  phase->tracer.Reserve(ticks.size() * 5);
  if (pool != nullptr) {
    stburst::ZipfSampler popularity(pool->size(), kQueryZipf);
    for (size_t r = 0; r < kReaders; ++r) {
      auto st = std::make_unique<ReaderState>(trace);
      Rng rng(seed * 1000003 + r);
      st->sequence.resize(per_reader);
      for (uint32_t& q : st->sequence) {
        q = static_cast<uint32_t>(popularity.Sample(&rng));
      }
      st->records.reserve(per_reader);
      st->query.reserve(per_reader);
      st->generation.reserve(per_reader);
      st->digest.reserve(per_reader);
      st->ta_sorted.reserve(per_reader);
      st->ta_random.reserve(per_reader);
      st->tracer.Reserve(per_reader);
      phase->readers.push_back(std::move(st));
    }
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const int64_t interval =
      static_cast<int64_t>(1e9 / (kQueriesPerSecond / kReaders));
  const int64_t start = NowNs() + 2'000'000;
  for (size_t r = 0; r < phase->readers.size(); ++r) {
    const OpenLoopSchedule schedule{
        start + static_cast<int64_t>(r) * interval /
                    static_cast<int64_t>(kReaders),
        interval};
    threads.emplace_back(ReaderLoop, runtime, pool, schedule, &stop,
                         static_cast<uint64_t>(r), phase->readers[r].get());
  }

  Tracer* tr = &phase->tracer;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  size_t i = 0;
  for (; i < ticks.size() && NowNs() < deadline; ++i) {
    Snapshot snap = ticks[i].Unpack();  // outside the timed region
    ++phase->attempted;
    const int64_t t0 = NowNs();
    const int32_t root = tr->Begin("tick", i);
    int32_t span = tr->Begin("stream.prepare", i, root);
    auto tx = runtime->PrepareTickIngest(std::move(snap));
    tr->End(span);
    if (!tx.ok()) {
      tr->End(root);
      ++phase->failed;
      continue;
    }
    span = tr->Begin("stream.refresh_select", i, root);
    std::vector<TermId> targets = FeedRuntime::SelectRefreshTargets(
        runtime->RefreshCandidates(*tx), kRefreshBudget);
    tr->End(span);
    span = tr->Begin("stream.stage", i, root);
    const Status staged = runtime->StageTickDerived(&*tx, std::move(targets));
    tr->End(span);
    if (!staged.ok()) {
      runtime->AbortTick(std::move(*tx));
      tr->End(root);
      ++phase->failed;
      continue;
    }
    span = tr->Begin("stream.commit", i, root);
    auto stats = runtime->CommitTick(std::move(*tx));
    tr->End(span);
    tr->End(root);
    const int64_t t1 = NowNs();
    if (!stats.ok()) {
      ++phase->failed;
      continue;
    }
    phase->tick_ms.push_back(NsToMs(t1 - t0));
    phase->stats.push_back(*stats);
    // Memory is read after one full window of ticks, when the retained
    // state has reached its steady size, not at the end: the cold tier
    // keeps growing with every tick, so an end-of-run peak would rise with
    // the number of ticks a faster program fits into the run.
    if (phase->stats.size() == static_cast<size_t>(kHistoryWeeks)) {
      phase->peak_rss_mb = PeakRssMb();
    }
  }
  if (phase->peak_rss_mb == 0) phase->peak_rss_mb = PeakRssMb();
  phase->ran_out_of_ticks = i == ticks.size() && NowNs() < deadline;
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  if (pool != nullptr) {
    phase->cache = runtime->search_cache_stats();
    for (const auto& st : phase->readers) phase->attempted += st->records.size();
  }
}

// The output checks of a feed run, against from-scratch oracles.
void CheckFeed(const FeedRuntime& runtime, const QueryPool* pool,
               const FeedPhase& phase, RunReport* report) {
  const FrequencyIndex fresh =
      FrequencyIndex::Build(runtime.collection(), kPoolThreads);
  const size_t bad_postings = CountPostingMismatches(fresh, runtime.index());
  if (bad_postings > 0) {
    Fail(report, 1,
         StringPrintf("%zu terms' postings differ from a FrequencyIndex "
                      "rebuilt over the retained collection",
                      bad_postings));
  }
  BatchMinerOptions mine = CombinatorialMinerOptions();
  mine.num_threads = kPoolThreads;
  auto oracle = stburst::MineAllTerms(runtime.index(), mine);
  if (!oracle.ok()) {
    Fail(report, 1, "oracle MineAllTerms: " + oracle.status().ToString());
    return;
  }
  const ResultComparison c = CompareResult(runtime, *oracle);
  if (c.fresh_differ > 0 || c.stale_differ > 0) {
    Fail(report, 1,
         StringPrintf("result(): %zu of %zu slots mined by the final tick "
                      "differ from MineAllTerms over the retained index; %zu "
                      "slots differ from a mine of the window they were last "
                      "mined under",
                      c.fresh_differ, c.fresh, c.stale_differ));
  } else {
    Note(report, StringPrintf("check ok: result() slots mined by the final "
                              "tick (%zu) equal MineAllTerms over the "
                              "retained index; all %zu slots equal a mine of "
                              "the window they were last mined under",
                              c.fresh, c.fresh + c.quiet));
  }
  Note(report, StringPrintf("finding: %zu of %zu quiet slots differ from a "
                            "fresh mine of the retained window",
                            c.quiet_differ, c.quiet));
  if (pool == nullptr) return;

  const BurstySearchEngine engine = BurstySearchEngine::Build(
      runtime.collection(), CombinatorialPatterns(runtime.result()));
  const uint64_t final_generation = runtime.search_snapshot()->generation;
  std::vector<uint64_t> oracle_digest(pool->size());
  size_t bad_pool = 0;
  for (size_t q = 0; q < pool->size(); ++q) {
    const TopKResult want = engine.Search((*pool)[q], kTopK);
    oracle_digest[q] = Digest(want);
    if (!SameTopK(runtime.Search((*pool)[q], kTopK), want)) ++bad_pool;
  }
  if (bad_pool > 0) {
    Fail(report, 1,
         StringPrintf("%zu of %zu pool queries differ from a from-scratch "
                      "BurstySearchEngine (docs, scores or TA accesses)",
                      bad_pool, pool->size()));
  } else {
    Note(report, StringPrintf("check ok: all %zu pool queries equal a "
                              "from-scratch BurstySearchEngine, access "
                              "counts included",
                              pool->size()));
  }

  // Live answers: one answer per (generation, query); readers never see a
  // generation go backwards; answers from the final generation match the
  // oracle.
  std::map<std::pair<uint64_t, uint32_t>, uint64_t> seen;
  size_t bad_live = 0;
  size_t final_checked = 0;
  for (const auto& st : phase.readers) {
    uint64_t last_generation = 0;
    for (size_t i = 0; i < st->query.size(); ++i) {
      bool ok = st->generation[i] >= last_generation;
      last_generation = std::max(last_generation, st->generation[i]);
      auto [it, inserted] =
          seen.emplace(std::make_pair(st->generation[i], st->query[i]),
                       st->digest[i]);
      ok = ok && (inserted || it->second == st->digest[i]);
      if (st->generation[i] == final_generation) {
        ++final_checked;
        ok = ok && st->digest[i] == oracle_digest[st->query[i]];
      }
      if (!ok) ++bad_live;
    }
  }
  if (bad_live > 0) {
    Fail(report, bad_live,
         StringPrintf("%zu live answers inconsistent (per-generation answer, "
                      "generation order, or final-generation oracle)",
                      bad_live));
  } else {
    Note(report, StringPrintf("check ok: live answers consistent per "
                              "generation; %zu final-generation answers "
                              "equal the oracle",
                              final_checked));
  }
}

Layers FeedLayers(const FeedRuntime& runtime, const FeedPhase& phase) {
  Layers l;
  const Tracer& tr = phase.tracer;
  l.prepare_ms = Median(SelfMs(tr, "stream.prepare"));
  l.refresh_select_ms = Median(SelfMs(tr, "stream.refresh_select"));
  l.stage_ms = Median(SelfMs(tr, "stream.stage"));
  l.commit_ms = Median(SelfMs(tr, "stream.commit"));
  l.phase_coverage_min = MinCoverage(tr, "tick");
  std::vector<double> docs, dirty, folded, refreshed, search;
  for (const FeedTickStats& s : phase.stats) {
    docs.push_back(static_cast<double>(s.documents));
    dirty.push_back(static_cast<double>(s.dirty_terms));
    folded.push_back(static_cast<double>(s.folded_terms));
    refreshed.push_back(static_cast<double>(s.refreshed_terms));
    search.push_back(static_cast<double>(s.search_terms));
  }
  l.docs_per_tick = Mean(docs);
  l.dirty_terms_per_tick = Mean(dirty);
  l.folded_terms_per_tick = Mean(folded);
  l.refreshed_terms_per_tick = Mean(refreshed);
  l.search_terms_per_tick = Mean(search);
  l.freq_postings_mb =
      static_cast<double>(runtime.index().PostingsMemoryBytes()) / 1e6;
  if (runtime.history() != nullptr) {
    l.history_rows = static_cast<double>(runtime.history()->base_rows() +
                                         runtime.history()->delta_rows());
  }
  if (!phase.readers.empty()) {
    std::vector<double> search_us, sorted, random, latency_us, late_ms;
    for (const auto& st : phase.readers) {
      for (double ms : SelfMs(st->tracer, "index.search")) {
        search_us.push_back(ms * 1e3);
      }
      sorted.insert(sorted.end(), st->ta_sorted.begin(), st->ta_sorted.end());
      random.insert(random.end(), st->ta_random.begin(), st->ta_random.end());
      for (const OpenLoopRecord& r : st->records) {
        latency_us.push_back(static_cast<double>(r.latency_ns()) / 1e3);
        late_ms.push_back(NsToMs(r.lateness_ns()));
      }
      l.reader_preemptions += st->preemptions;
    }
    l.search_us = Median(search_us);
    l.ta_sorted = Mean(sorted);
    l.ta_random = Mean(random);
    const double lookups =
        static_cast<double>(phase.cache.hits + phase.cache.misses);
    l.cache_lookups = lookups;
    l.cache_hit_ratio =
        lookups > 0 ? static_cast<double>(phase.cache.hits) / lookups : 0.0;
    const Summary latency = Summarize(latency_us);
    l.query_us_p50 = latency.p50;
    l.query_us_tail = latency.tail;
    l.gen_late_ms = Summarize(late_ms).tail;
    const auto snapshot = runtime.search_snapshot();
    l.snapshot_postings = static_cast<double>(snapshot->index.total_postings());
    l.generations = static_cast<double>(snapshot->generation);
  }
  return l;
}

StatusOr<RunReport> RunFeed(const RunOptions& options, bool search) {
  RunReport report;
  // Inputs first: every tick the run can reach, and the query pool.
  const size_t max_ticks =
      static_cast<size_t>(options.seconds * kMaxTicksPerSecond) + 1;
  STB_ASSIGN_OR_RETURN(ReplayFeed feed,
                       BuildReplayFeed(options.seed, max_ticks));
  QueryPool pool;
  if (search) {
    pool = BuildQueryPool(feed.history.vocabulary(), feed.event_queries,
                          options.seed);
  }
  const QueryPool* pool_ptr = search ? &pool : nullptr;
  Note(&report, StringPrintf("feed: %zu history documents over %d weeks, %zu "
                             "ticks generated, %zu terms",
                             feed.history.num_documents(), kHistoryWeeks,
                             feed.ticks.size(),
                             feed.history.vocabulary().size()));

  auto create = [&](double* seconds) -> StatusOr<FeedRuntime> {
    Collection history = feed.history;
    const int64_t t0 = NowNs();
    auto runtime = FeedRuntime::Create(std::move(history), FeedOptions(search));
    *seconds = static_cast<double>(NowNs() - t0) / 1e9;
    return runtime;
  };

  if (options.trace) {
    // The untraced half gives the baseline the tracing overhead is read
    // against; the traced half gives the per-layer numbers. Same ticks.
    const double half = options.seconds / 2;
    double unused = 0;
    FeedPhase untraced(false);
    {
      STB_ASSIGN_OR_RETURN(FeedRuntime runtime, create(&unused));
      RunFeedPhase(&runtime, feed.ticks, pool_ptr, options.seed, half,
                   &untraced);
    }
    const int64_t origin = NowNs();
    FeedPhase traced(true);
    STB_ASSIGN_OR_RETURN(FeedRuntime runtime, create(&unused));
    RunFeedPhase(&runtime, feed.ticks, pool_ptr, options.seed, half, &traced);
    Layers l = FeedLayers(runtime, traced);
    l.trace_overhead_ms = PrefixMedianDelta(untraced.tick_ms, traced.tick_ms);
    report.metrics = LayerMetrics(l);
    report.attempted = untraced.attempted + traced.attempted;
    report.failed = untraced.failed + traced.failed;
    Note(&report, StringPrintf("traced run: %zu ticks; untraced baseline: %zu "
                               "ticks",
                               traced.tick_ms.size(), untraced.tick_ms.size()));
    if (l.phase_coverage_min < 0.95) {
      Fail(&report, 1,
           StringPrintf("tick phase spans cover only %.4f of a tick",
                        l.phase_coverage_min));
    }
    std::vector<const Tracer*> tracers{&traced.tracer};
    for (const auto& st : traced.readers) tracers.push_back(&st->tracer);
    DumpSpans(options, tracers, origin, &report);
    CheckFeed(runtime, pool_ptr, traced, &report);
    return report;
  }

  ResetPeakRss();
  std::vector<double> setups;
  std::unique_ptr<FeedRuntime> runtime;
  for (int r = 0; r < kSetupRepeats; ++r) {
    runtime.reset();
    double s = 0;
    STB_ASSIGN_OR_RETURN(FeedRuntime created, create(&s));
    runtime = std::make_unique<FeedRuntime>(std::move(created));
    setups.push_back(s);
  }
  FeedPhase phase(false);
  RunFeedPhase(runtime.get(), feed.ticks, pool_ptr, options.seed,
               options.seconds, &phase);
  const double peak_rss_mb = phase.peak_rss_mb;
  report.attempted = phase.attempted;
  report.failed = phase.failed;
  if (phase.ran_out_of_ticks) {
    Note(&report, "ran out of generated ticks before the run length");
  }

  const Summary ticks = Summarize(phase.tick_ms);
  const double setup_s = Median(setups);
  report.metrics = {{"update_ms_p50", ticks.p50, "ms"},
                    {"update_ms_tail", ticks.tail, "ms"},
                    {"setup_s", setup_s, "s"},
                    {"peak_rss_mb", peak_rss_mb, "MB"}};
  report.named = {{"setup_s", setup_s, "s"},
                  {"tick_ms_p50", ticks.p50, "ms"},
                  {"tick_ms_tail", ticks.tail, "ms"}};
  Note(&report, TailNote("tick", ticks, "ms"));
  if (search) {
    std::vector<double> latency_us;
    for (const auto& st : phase.readers) {
      for (const OpenLoopRecord& r : st->records) {
        latency_us.push_back(static_cast<double>(r.latency_ns()) / 1e3);
      }
    }
    const Summary q = Summarize(latency_us);
    report.named.push_back({"query_us_p50", q.p50, "us"});
    report.named.push_back({"query_us_tail", q.tail, "us"});
    Note(&report, TailNote("query (from its due time)", q, "us"));
  }
  report.named.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  CheckFeed(*runtime, pool_ptr, phase, &report);
  return report;
}

// ================================================================ batch_mine
struct BatchInputs {
  const Collection* corpus = nullptr;
  std::vector<TermId> sample;
  BatchMinerOptions combinatorial;
  BatchMinerOptions regional;
};

struct PassOutput {
  FrequencyIndex index;
  BatchMineResult combinatorial;
  std::vector<TermId> regional_terms;  // sorted; parallel to `regional`
  std::vector<TermPatterns> regional;
  std::unique_ptr<BurstySearchEngine> engine;
  uint64_t digest = 0;
};

uint64_t PassDigest(const PassOutput& out) {
  uint64_t h = 0;
  for (const TermPatterns& slot : out.combinatorial.terms) {
    for (const auto& p : slot.combinatorial) {
      h = Mix(Mix(Mix(h, p.streams.size()), p.timeframe.start),
              DoubleBits(p.score));
    }
  }
  for (const TermPatterns& slot : out.regional) {
    for (const auto& w : slot.regional) {
      h = Mix(Mix(Mix(h, w.streams.size()), w.timeframe.start),
              DoubleBits(w.score));
    }
  }
  return Mix(h, out.engine->index().total_postings());
}

// One pass of the offline path; false when a library call failed.
bool RunPass(const BatchInputs& in, stburst::ThreadPool* pool, uint64_t id,
             Tracer* tr, PassOutput* out) {
  const int32_t root = tr->Begin("batch.pass", id);
  int32_t span = tr->Begin("stream.freq_build", id, root);
  out->index = FrequencyIndex::BuildWithPool(*in.corpus, pool);
  tr->End(span);
  span = tr->Begin("core.stcomb", id, root);
  auto comb = stburst::MineAllTerms(out->index, in.combinatorial);
  tr->End(span);
  if (!comb.ok()) {
    tr->End(root);
    return false;
  }
  out->combinatorial = std::move(*comb);
  span = tr->Begin("core.stlocal", id, root);
  out->regional.clear();
  auto staged = stburst::StageRemineTerms(out->index, in.sample, in.regional,
                                          &out->regional);
  tr->End(span);
  if (!staged.ok()) {
    tr->End(root);
    return false;
  }
  out->regional_terms = std::move(*staged);
  span = tr->Begin("index.engine_build", id, root);
  out->engine = std::make_unique<BurstySearchEngine>(BurstySearchEngine::Build(
      *in.corpus, CombinatorialPatterns(out->combinatorial)));
  tr->End(span);
  tr->End(root);
  return true;
}

struct BatchPhase {
  explicit BatchPhase(bool trace) : tracer(trace) {}
  Tracer tracer;
  std::vector<double> pass_ms;
  std::vector<uint64_t> digests;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  PassOutput last;
};

void RunBatchPhase(const BatchInputs& in, stburst::ThreadPool* pool,
                   double seconds, BatchPhase* phase) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t id = 0; NowNs() < deadline; ++id) {
    ++phase->attempted;
    PassOutput out;
    const int64_t t0 = NowNs();
    const bool ok = RunPass(in, pool, id, &phase->tracer, &out);
    const int64_t t1 = NowNs();
    if (!ok) {
      ++phase->failed;
      continue;
    }
    phase->pass_ms.push_back(NsToMs(t1 - t0));
    out.digest = PassDigest(out);
    phase->digests.push_back(out.digest);
    phase->last = std::move(out);
  }
}

void CheckBatch(const BatchInputs& in, const QueryPool& pool,
                const BatchPhase& phase, RunReport* report) {
  if (phase.pass_ms.empty()) {
    Fail(report, 1, "no batch pass completed");
    return;
  }
  const PassOutput& out = phase.last;
  size_t bad_passes = 0;
  for (uint64_t d : phase.digests) bad_passes += d != phase.digests[0];
  if (bad_passes > 0) {
    Fail(report, bad_passes,
         StringPrintf("%zu passes produced different patterns or indexes "
                      "than the first",
                      bad_passes));
  }
  // Sampled terms against the standalone per-term miners.
  const stburst::StComb stcomb(in.combinatorial.stcomb);
  size_t bad_terms = 0;
  const size_t checked = std::min(kSpotCheckTerms, in.sample.size());
  for (size_t i = 0; i < checked; ++i) {
    const TermId t = in.sample[i];
    const stburst::TermSeries series = out.index.DenseSeries(t);
    auto windows = stburst::MineRegionalPatterns(
        series, in.regional.positions, in.regional.model_factory,
        in.regional.stlocal);
    const auto it = std::lower_bound(out.regional_terms.begin(),
                                     out.regional_terms.end(), t);
    if (!windows.ok() || it == out.regional_terms.end() || *it != t) {
      ++bad_terms;
    } else {
      const TermPatterns& got =
          out.regional[static_cast<size_t>(it - out.regional_terms.begin())];
      TermPatterns want;
      want.mined = got.mined;
      want.regional = std::move(*windows);
      if (!SameSlot(got, want)) ++bad_terms;
    }
    TermPatterns comb_want;
    comb_want.mined = out.combinatorial.terms[t].mined;
    comb_want.combinatorial = stcomb.MinePatterns(series);
    if (!SameSlot(out.combinatorial.terms[t], comb_want)) ++bad_terms;
  }
  if (bad_terms > 0) {
    Fail(report, 1,
         StringPrintf("%zu sampled-term slots differ from standalone "
                      "MineRegionalPatterns / StComb::MinePatterns",
                      bad_terms));
  } else {
    Note(report, StringPrintf("check ok: %zu sampled terms equal standalone "
                              "MineRegionalPatterns and StComb::MinePatterns",
                              checked));
  }
  size_t bad_queries = 0;
  size_t boundary_ties = 0;
  for (const auto& q : pool) {
    const TopKResult ta = out.engine->Search(q, kTopK);
    const TopKResult all =
        stburst::ExhaustiveTopK(out.engine->index(), q, kTopK);
    if (!SameAboveBoundary(ta, all)) {
      ++bad_queries;
    } else if (!SameDocs(ta, all)) {
      ++boundary_ties;
    }
  }
  if (bad_queries > 0) {
    Fail(report, 1,
         StringPrintf("%zu pool queries: TA differs from an exhaustive merge "
                      "above the k-th score",
                      bad_queries));
  } else {
    Note(report, StringPrintf("check ok: TA top-%zu equals an exhaustive "
                              "merge in every score and every document above "
                              "the k-th score, for all %zu pool queries",
                              kTopK, pool.size()));
  }
  Note(report, StringPrintf("finding: %zu pool queries where TA keeps a "
                            "different document among those tied at the k-th "
                            "score",
                            boundary_ties));
}

// kStLocalSample terms at evenly spaced ranks of the vocabulary sorted by
// corpus frequency, from a seeded start: every seed mines the same mix of
// heavy and light terms, so the STLocal share of a pass does not swing with
// the seed.
std::vector<TermId> RankSample(const FrequencyIndex& index, uint64_t seed) {
  std::vector<std::pair<double, TermId>> ranked;
  for (TermId t = 0; t < index.num_terms(); ++t) {
    const double total = index.TotalCount(t);
    if (total > 0) ranked.emplace_back(-total, t);
  }
  std::sort(ranked.begin(), ranked.end());
  const size_t n = std::min(kStLocalSample, ranked.size());
  std::vector<TermId> sample;
  if (n == 0) return sample;
  const size_t stride = ranked.size() / n;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 3);
  const size_t start = rng.NextUint64(stride);
  for (size_t i = 0; i < n; ++i) {
    sample.push_back(ranked[start + i * stride].second);
  }
  return sample;
}

Layers BatchLayers(const BatchPhase& phase) {
  Layers l;
  const Tracer& tr = phase.tracer;
  l.freq_build_s = Median(SelfMs(tr, "stream.freq_build")) / 1e3;
  l.stcomb_s = Median(SelfMs(tr, "core.stcomb")) / 1e3;
  l.stlocal_s = Median(SelfMs(tr, "core.stlocal")) / 1e3;
  l.engine_build_s = Median(SelfMs(tr, "index.engine_build")) / 1e3;
  l.phase_coverage_min = MinCoverage(tr, "batch.pass");
  if (!phase.pass_ms.empty()) {
    const PassOutput& out = phase.last;
    size_t patterns = 0;
    for (const auto& slot : out.combinatorial.terms) {
      patterns += slot.combinatorial.size();
    }
    size_t windows = 0;
    for (const auto& slot : out.regional) windows += slot.regional.size();
    l.stcomb_patterns = static_cast<double>(patterns);
    l.stlocal_windows = static_cast<double>(windows);
    l.stlocal_terms = static_cast<double>(out.regional.size());
    l.snapshot_postings =
        static_cast<double>(out.engine->index().total_postings());
    l.freq_postings_mb =
        static_cast<double>(out.index.PostingsMemoryBytes()) / 1e6;
  }
  return l;
}

StatusOr<RunReport> RunBatch(const RunOptions& options) {
  RunReport report;
  STB_ASSIGN_OR_RETURN(
      stburst::TopixSimulator sim,
      stburst::TopixSimulator::Generate(CorpusOptions(options.seed)));
  const Collection& corpus = sim.collection();
  std::vector<std::vector<TermId>> events;
  for (size_t e = 0; e < sim.events().size(); ++e) {
    events.push_back(sim.QueryTerms(e));
  }
  const QueryPool pool =
      BuildQueryPool(corpus.vocabulary(), events, options.seed);

  stburst::ThreadPool thread_pool(kPoolThreads - 1);
  BatchInputs in;
  in.corpus = &corpus;
  in.combinatorial = CombinatorialMinerOptions();
  in.combinatorial.pool = &thread_pool;
  in.regional.mine_combinatorial = false;
  in.regional.mine_regional = true;
  in.regional.pool = &thread_pool;
  in.regional.positions = corpus.StreamPositions();
  in.regional.model_factory = stburst::WithPriorFloor(
      [] { return std::make_unique<stburst::GlobalMeanModel>(); }, 0.2);

  // Set-up: the frequency index build, several times.
  ResetPeakRss();
  std::vector<double> setups;
  for (int r = 0; r < kIndexBuildRepeats; ++r) {
    const int64_t t0 = NowNs();
    const FrequencyIndex index =
        FrequencyIndex::BuildWithPool(corpus, &thread_pool);
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (r == 0) in.sample = RankSample(index, options.seed);
  }
  Note(&report, StringPrintf("corpus: %zu documents, %zu terms; STLocal "
                             "sample %zu terms",
                             corpus.num_documents(),
                             corpus.vocabulary().size(), in.sample.size()));

  // Warm-up: one untimed pass, so the first timed pass is not charged for
  // first-touch page faults and the allocator's growth.
  {
    Tracer off(false);
    PassOutput warm;
    if (!RunPass(in, &thread_pool, 0, &off, &warm)) {
      return Status::Internal("warm-up batch pass failed");
    }
  }

  if (options.trace) {
    BatchPhase untraced(false);
    RunBatchPhase(in, &thread_pool, options.seconds / 2, &untraced);
    const int64_t origin = NowNs();
    BatchPhase traced(true);
    RunBatchPhase(in, &thread_pool, options.seconds / 2, &traced);
    Layers l = BatchLayers(traced);
    l.trace_overhead_ms = PrefixMedianDelta(untraced.pass_ms, traced.pass_ms);
    report.metrics = LayerMetrics(l);
    report.attempted = untraced.attempted + traced.attempted;
    report.failed = untraced.failed + traced.failed;
    if (l.phase_coverage_min < 0.95) {
      Fail(&report, 1,
           StringPrintf("pass phase spans cover only %.4f of a pass",
                        l.phase_coverage_min));
    }
    DumpSpans(options, {&traced.tracer}, origin, &report);
    CheckBatch(in, pool, traced, &report);
    return report;
  }

  BatchPhase phase(false);
  RunBatchPhase(in, &thread_pool, options.seconds, &phase);
  const double peak_rss_mb = PeakRssMb();
  report.attempted = phase.attempted;
  report.failed = phase.failed;
  const Summary passes = Summarize(phase.pass_ms);
  const double setup_s = Median(setups);
  report.metrics = {{"update_ms_p50", passes.p50, "ms"},
                    {"update_ms_tail", passes.tail, "ms"},
                    {"setup_s", setup_s, "s"},
                    {"peak_rss_mb", peak_rss_mb, "MB"}};
  report.named = {{"setup_s", setup_s, "s"},
                  {"batch_s", passes.p50 / 1e3, "s"},
                  {"peak_rss_mb", peak_rss_mb, "MB"}};
  Note(&report, TailNote("batch pass", passes, "ms"));
  CheckBatch(in, pool, phase, &report);
  return report;
}

}  // namespace

StatusOr<RunReport> RunWorkload(const RunOptions& options) {
  StatusOr<RunReport> report = Status::InvalidArgument(
      "unknown workload '" + options.workload + "'");
  if (options.workload == "feed_search") report = RunFeed(options, true);
  if (options.workload == "feed_ingest") report = RunFeed(options, false);
  if (options.workload == "batch_mine") report = RunBatch(options);
  if (!report.ok()) return report;
  const double attempted = static_cast<double>(report->attempted);
  const double fail_ratio =
      attempted > 0 ? static_cast<double>(report->failed) / attempted : 1.0;
  if (!options.trace) report->named.push_back({"fail_ratio", fail_ratio, "1"});
  if (report->attempted == 0 || report->failed > 0) report->correct = false;
  return report;
}

}  // namespace perfbench
