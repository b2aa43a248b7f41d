#include "stburst/common/simd.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define STBURST_SIMD_X86 1
#include <immintrin.h>
#else
#define STBURST_SIMD_X86 0
#endif

// This translation unit must build with -ffp-contract=off (enforced in
// CMakeLists.txt): AddScaledInto's bit-identity contract requires the
// multiply and add to round separately on every path, and the scalar loop
// here would otherwise be eligible for contraction wherever the compile
// target carries FMA.

namespace stburst {
namespace simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar kernels — the portable reference every vector variant must match
// bit-for-bit.
// ---------------------------------------------------------------------------

void AddIntoScalar(double* dst, const double* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void AddScaledIntoScalar(double* dst, const double* src, double scale,
                         size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += scale * src[i];
}

// Mirrors vmaxpd exactly: (a > b) ? a : b, so ties and +0/-0 take src.
void MaxIntoScalar(double* dst, const double* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = dst[i] > src[i] ? dst[i] : src[i];
}

#if STBURST_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 kernels. Compiled with function-level target attributes so the
// translation unit (and the rest of the library) keeps the portable
// baseline; these bodies are only reached after the runtime CPU check.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void AddIntoAvx2(double* dst,
                                                 const double* src, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
    _mm256_storeu_pd(dst + i + 4, _mm256_add_pd(_mm256_loadu_pd(dst + i + 4),
                                                _mm256_loadu_pd(src + i + 4)));
    _mm256_storeu_pd(dst + i + 8, _mm256_add_pd(_mm256_loadu_pd(dst + i + 8),
                                                _mm256_loadu_pd(src + i + 8)));
    _mm256_storeu_pd(dst + i + 12,
                     _mm256_add_pd(_mm256_loadu_pd(dst + i + 12),
                                   _mm256_loadu_pd(src + i + 12)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

__attribute__((target("avx2"))) void AddScaledIntoAvx2(double* dst,
                                                       const double* src,
                                                       double scale,
                                                       size_t n) {
  const __m256d vs = _mm256_set1_pd(scale);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                               _mm256_mul_pd(vs, _mm256_loadu_pd(src + i))));
    _mm256_storeu_pd(dst + i + 4,
                     _mm256_add_pd(_mm256_loadu_pd(dst + i + 4),
                                   _mm256_mul_pd(
                                       vs, _mm256_loadu_pd(src + i + 4))));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                               _mm256_mul_pd(vs, _mm256_loadu_pd(src + i))));
  }
  for (; i < n; ++i) dst[i] += scale * src[i];
}

__attribute__((target("avx2"))) void MaxIntoAvx2(double* dst,
                                                 const double* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_max_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] = dst[i] > src[i] ? dst[i] : src[i];
}

#endif  // STBURST_SIMD_X86

// The dispatch state, resolved once (thread-safe via static-local init).
// SetIsaForTest mutates it from a quiesced state, so a plain struct is
// enough — no atomics on the kernel call path.
struct Dispatch {
  Isa isa;
  void (*add_into)(double*, const double*, size_t);
  void (*add_scaled_into)(double*, const double*, double, size_t);
  void (*max_into)(double*, const double*, size_t);
};

Dispatch MakeDispatch(Isa isa) {
#if STBURST_SIMD_X86
  if (isa == Isa::kAvx2 && Avx2Supported()) {
    return {Isa::kAvx2, &AddIntoAvx2, &AddScaledIntoAvx2, &MaxIntoAvx2};
  }
#endif
  return {Isa::kScalar, &AddIntoScalar, &AddScaledIntoScalar, &MaxIntoScalar};
}

bool EnvSetToOne(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && std::strcmp(v, "1") == 0;
}

Isa ResolveIsa() {
  if (EnvSetToOne("STBURST_NO_AVX2")) return Isa::kScalar;
  return Avx2Supported() ? Isa::kAvx2 : Isa::kScalar;
}

Dispatch& ActiveDispatch() {
  static Dispatch dispatch = MakeDispatch(ResolveIsa());
  return dispatch;
}

}  // namespace

bool Avx2Supported() {
#if STBURST_SIMD_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Isa ActiveIsa() { return ActiveDispatch().isa; }

const char* IsaName(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

Isa SetIsaForTest(Isa isa) {
  Dispatch& dispatch = ActiveDispatch();
  const Isa previous = dispatch.isa;
  dispatch = MakeDispatch(isa);
  return previous;
}

void AddInto(double* dst, const double* src, size_t n) {
  ActiveDispatch().add_into(dst, src, n);
}

void AddScaledInto(double* dst, const double* src, double scale, size_t n) {
  ActiveDispatch().add_scaled_into(dst, src, scale, n);
}

void MaxInto(double* dst, const double* src, size_t n) {
  ActiveDispatch().max_into(dst, src, n);
}

}  // namespace simd
}  // namespace stburst
