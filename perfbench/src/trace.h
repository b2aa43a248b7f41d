// Spans recorded by the benchmark around its calls into each library layer.
//
// A span has a name, a start, an end, and the span that caused it; the spans
// of one tick, one query or one batch pass share a trace id. Each thread
// records into its own Tracer (no locks on the hot path); spans stay in
// memory and are written out when the run ends. A layer's self time is its
// span's duration minus the part of that interval its child spans cover.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stburst/common/status.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  uint64_t trace_id = 0;
  int32_t parent = -1;  ///< index of the parent span in the same Tracer
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// One thread's span buffer. A disabled tracer records nothing and its
/// Begin/End cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Pre-sizes the buffer so recording never reallocates mid-run.
  void Reserve(size_t spans) {
    if (enabled_) spans_.reserve(spans);
  }

  /// Opens a span; returns its index (-1 when disabled). `name` must outlive
  /// the tracer (string literals).
  int32_t Begin(const char* name, uint64_t trace_id, int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, trace_id, parent, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void End(int32_t index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Self time of every span (parallel to `spans`): its duration minus the
/// length of the union of its children's intervals, each clipped to the
/// parent's interval. Overlapping children (work fanned out in parallel)
/// are counted once.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Writes every span of every tracer as JSON lines — thread, index, name,
/// trace id, parent, start/end (ns, relative to `origin_ns`) and self time.
stburst::Status WriteSpans(const std::string& path,
                           const std::vector<const Tracer*>& tracers,
                           int64_t origin_ns);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
