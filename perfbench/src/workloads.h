// The benchmark's three workloads (perfbench/README.md says why each one):
//
//   feed_search  FeedRuntime on the Topix-replay feed with combinatorial
//                search serving and the query cache on, while two reader
//                threads send an open-loop Zipf query stream.
//   feed_ingest  the same feed and options with search serving off and no
//                readers: ingest, evict, fold and re-mine only.
//   batch_mine   the offline path on one Topix corpus, repeated in passes:
//                FrequencyIndex build, whole-vocabulary STComb, STLocal over
//                a seeded term sample, BurstySearchEngine build.
//
// Each drives the library only through its public functions, checks the
// outputs outside the timed region, and reports its end-to-end metrics (an
// untraced run) or its per-layer metrics (a traced run).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stburst/common/statusor.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Where the span dump goes (traced runs); must exist.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The metrics BENCHMARK.json lists: end-to-end (untraced run) or
  /// per-layer (traced run).
  std::vector<Metric> metrics;
  /// Untraced runs: the end-to-end metrics under the names the workload's
  /// users know them by (tick_ms_*, query_us_*, batch_s, fail_ratio).
  std::vector<Metric> named;
  /// How a number was taken (sample counts, tail percentiles) and each
  /// output check's verdict.
  std::vector<std::string> notes;
};

/// Generates the seeded inputs, runs the workload for options.seconds,
/// checks the outputs. A non-OK status means the run could not be set up
/// (unknown workload, generation failure), not that an output was wrong —
/// wrong outputs set RunReport::correct = false.
stburst::StatusOr<RunReport> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
