#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

stburst::Status WriteSpans(const std::string& path,
                           const std::vector<const Tracer*>& tracers,
                           int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return stburst::Status::Internal("cannot open span dump " + path);
  }
  for (size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\":%zu,\"span\":%zu,\"name\":\"%s\","
                   "\"trace\":%llu,\"parent\":%d,\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"self_ns\":%lld}\n",
                   t, i, s.name, static_cast<unsigned long long>(s.trace_id),
                   s.parent, static_cast<long long>(s.start_ns - origin_ns),
                   static_cast<long long>(s.end_ns - origin_ns),
                   static_cast<long long>(self[i]));
    }
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? stburst::Status::OK()
            : stburst::Status::Internal("cannot write span dump " + path);
}

}  // namespace perfbench
