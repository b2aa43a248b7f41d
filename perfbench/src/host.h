// The host fingerprint every result carries: CPU model, online CPU count,
// the ISA the library's kernels dispatch to, and the build type. Results
// with different fingerprints measure different machines or builds, so
// perfbench/compare.py refuses to compare them instead of gating.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <string>

namespace perfbench {

struct HostFingerprint {
  std::string cpu_model;
  int nproc = 0;
  std::string isa;
  std::string build_type;

  /// {"cpu_model": ..., "nproc": ..., "isa": ..., "build_type": ...}
  std::string ToJson() const;
};

HostFingerprint CurrentHost();

/// `s` as a JSON string literal (quotes and escapes included).
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
