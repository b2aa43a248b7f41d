// Open-loop request generation: request k of a reader is due at
// start + k * interval whether or not earlier requests have finished, the
// way independent users send. A request that cannot be sent on time (its
// reader is still busy, or was descheduled) goes out late, and its latency
// is measured from when it was due, so a stall is charged to every request
// it delays, not just the one it hit.

#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

struct OpenLoopSchedule {
  int64_t start_ns = 0;
  int64_t interval_ns = 0;

  int64_t Due(size_t k) const {
    return start_ns + static_cast<int64_t>(k) * interval_ns;
  }
};

/// One request's timeline.
struct OpenLoopRecord {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;

  /// What the user waited: from when the request was due to its answer.
  int64_t latency_ns() const { return done_ns - due_ns; }
  /// How late the generator sent it.
  int64_t lateness_ns() const { return send_ns - due_ns; }
};

/// Issues requests on `schedule` until `stop()` returns true. For each k it
/// waits until the request is due (never when already late), sends it by
/// calling `op(k)`, and appends the request's timeline to `records`.
/// `clock()` returns nanoseconds; `wait_until(t)` returns once clock() >= t.
/// Templated so tests can drive it with a scripted clock.
template <typename Clock, typename WaitUntil, typename Op, typename Stop>
void RunOpenLoop(const OpenLoopSchedule& schedule, Clock&& clock,
                 WaitUntil&& wait_until, Op&& op, Stop&& stop,
                 std::vector<OpenLoopRecord>* records) {
  for (size_t k = 0; !stop(); ++k) {
    OpenLoopRecord r;
    r.due_ns = schedule.Due(k);
    if (clock() < r.due_ns) wait_until(r.due_ns);
    r.send_ns = clock();
    op(k);
    r.done_ns = clock();
    records->push_back(r);
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
