// perfbench: one run of one workload of the repository benchmark.
//
//   perfbench --workload <feed_search|feed_ingest|batch_mine> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints the host fingerprint, every metric by name with its unit, how each
// was taken and each output check's verdict, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. With
// --out-dir it also writes that result, fingerprint included, to
// <dir>/result-<workload>-seed<n>-trace<t>.json (perfbench/compare.py reads
// it) and, when traced, the span dump. Exits 0 only when every output check
// passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "host.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  return 2;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += perfbench::JsonString(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) +
           ", \"unit\": " + perfbench::JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds > 0 and --trace 0|1 are "
                 "required");
  }

  const perfbench::HostFingerprint host = perfbench::CurrentHost();
  std::printf("perfbench: workload %s, seed %llu, %.3g s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("host %s\n", host.ToJson().c_str());
  std::fflush(stdout);

  auto report = perfbench::RunWorkload(options);
  if (!report.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", report.status().ToString().c_str());
    return 1;
  }
  for (const std::string& note : report->notes) {
    std::printf("note %s\n", note.c_str());
  }
  for (const Metric& m : report->named) {
    std::printf("metric %s %s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  for (const Metric& m : report->metrics) {
    std::printf("%s %s %s %s\n", options.trace ? "layer" : "end_to_end",
                m.name.c_str(), Number(m.value).c_str(), m.unit.c_str());
  }
  const std::string result =
      std::string("{\"correct\": ") + (report->correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(report->attempted) +
      ", \"failed\": " + std::to_string(report->failed) +
      ", \"metrics\": " + MetricsJson(report->metrics) + "}";

  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/result-" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             "-trace" + (options.trace ? "1" : "0") + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f,
                   "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
                   "\"trace\": %d, \"host\": %s, \"named\": %s, "
                   "\"result\": %s}\n",
                   perfbench::JsonString(options.workload).c_str(),
                   static_cast<unsigned long long>(options.seed),
                   Number(options.seconds).c_str(), options.trace ? 1 : 0,
                   host.ToJson().c_str(), MetricsJson(report->named).c_str(),
                   result.c_str());
      std::fclose(f);
    }
  }
  std::printf("%s\n", result.c_str());
  return report->correct ? 0 : 1;
}
