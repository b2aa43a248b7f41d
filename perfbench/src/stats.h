// Latency summaries: the median and the tail, where the tail is the highest
// whole percentile that still has at least ten samples beyond it — the
// highest percentile a run of that length can support.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave beyond it.
inline constexpr size_t kTailBeyond = 10;

/// 1-based nearest rank of whole percentile `q` (0..100) among `n` samples:
/// ceil(q * n / 100), at least 1.
size_t NearestRank(int q, size_t n);

/// The highest whole percentile q whose nearest-rank sample has at least
/// `beyond` samples after it in sorted order; -1 when n <= beyond (no
/// percentile qualifies).
int TailPercentile(size_t n, size_t beyond = kTailBeyond);

/// Nearest-rank percentile `q` of `samples` (unsorted; copied). 0 when empty.
double Percentile(std::vector<double> samples, int q);

double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  /// TailPercentile(n). When no percentile qualifies (n <= 10) it reads 0
  /// and the tail is the minimum: the rule's own limit, since at n = 11 the
  /// qualifying percentile's nearest rank is already 1, so the tail does not
  /// jump when a slower run completes fewer operations.
  int tail_pct = 0;
  bool tail_qualified = false;
  double tail = 0.0;
};

Summary Summarize(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
