#include "stats.h"

#include <algorithm>
#include <numeric>

namespace perfbench {

size_t NearestRank(int q, size_t n) {
  const size_t rank = (static_cast<size_t>(q) * n + 99) / 100;
  return std::max<size_t>(rank, 1);
}

int TailPercentile(size_t n, size_t beyond) {
  if (n <= beyond) return -1;
  // rank <= n - beyond  <=>  q * n / 100 <= n - beyond.
  return static_cast<int>(std::min<size_t>(100 * (n - beyond) / n, 100));
}

double Percentile(std::vector<double> samples, int q) {
  if (samples.empty()) return 0.0;
  const size_t rank = std::min(NearestRank(q, samples.size()), samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = Median(samples);
  const int q = TailPercentile(samples.size());
  s.tail_qualified = q >= 0;
  s.tail_pct = s.tail_qualified ? q : 0;
  s.tail = Percentile(samples, s.tail_pct);
  return s;
}

}  // namespace perfbench
