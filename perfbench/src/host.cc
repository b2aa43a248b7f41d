#include "host.h"

#include <sched.h>

#include <cstdio>
#include <fstream>

#include "stburst/common/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    size_t begin = line.find_first_not_of(" \t", colon + 1);
    return begin == std::string::npos ? std::string() : line.substr(begin);
  }
  return "unknown";
}

int OnlineCpus() {
  // What `nproc` prints: the CPUs this process may run on.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string HostFingerprint::ToJson() const {
  return "{\"cpu_model\": " + JsonString(cpu_model) +
         ", \"nproc\": " + std::to_string(nproc) +
         ", \"isa\": " + JsonString(isa) +
         ", \"build_type\": " + JsonString(build_type) + "}";
}

HostFingerprint CurrentHost() {
  HostFingerprint h;
  h.cpu_model = CpuModel();
  h.nproc = OnlineCpus();
  h.isa = stburst::simd::IsaName(stburst::simd::ActiveIsa());
  h.build_type = PERFBENCH_BUILD_TYPE;
  return h;
}

}  // namespace perfbench
