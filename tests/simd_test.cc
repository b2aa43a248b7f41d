// ISA conformance for common/simd.h.
//
// Every element-wise kernel (AddInto, AddScaledInto, MaxInto) must be
// bit-identical across scalar / AVX2 — compared with memcmp, so signed
// zeros and every last ULP count — over odd sizes straddling the 4-lane
// boundary and the unrolls, and over deliberately misaligned spans.

#include "stburst/common/simd.h"

#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace stburst {
namespace simd {
namespace {

// Sizes straddling 0, the 4-lane AVX2 boundary, the 8- and 16-element
// unrolls, and a couple of large odd strays.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 33, 63, 64, 65, 100, 255, 257};

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas = {Isa::kScalar};
  if (Avx2Supported()) isas.push_back(Isa::kAvx2);
  return isas;
}

// Fills with a mix of magnitudes, signs, and signed zeros so a kernel that
// flips -0.0 to +0.0 or reorders a rounding step cannot slip through.
std::vector<double> RandomValues(std::mt19937_64& rng, size_t n) {
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> kind(0, 9);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    switch (kind(rng)) {
      case 0:
        v[i] = 0.0;
        break;
      case 1:
        v[i] = -0.0;
        break;
      case 2:
        v[i] = unit(rng) * 1e-300;  // denormal-adjacent
        break;
      case 3:
        v[i] = unit(rng) * 1e12;
        break;
      default:
        v[i] = unit(rng);
    }
  }
  return v;
}

// Runs `fn(dst_span, src_span, n)` on every supported ISA, on both aligned
// and one-element-shifted (misaligned) spans, and asserts the resulting dst
// bytes match the scalar run exactly.
template <typename Fn>
void ExpectBitIdenticalAcrossIsas(const Fn& fn, const char* what) {
  std::mt19937_64 rng(0xC0FFEE ^ std::strlen(what));
  const std::vector<Isa> isas = SupportedIsas();
  for (size_t n : kSizes) {
    for (size_t offset : {size_t{0}, size_t{1}}) {
      const std::vector<double> dst_init = RandomValues(rng, n + offset);
      const std::vector<double> src_init = RandomValues(rng, n + offset);
      std::vector<double> reference;
      for (Isa isa : isas) {
        const Isa previous = SetIsaForTest(isa);
        ASSERT_EQ(ActiveIsa(), isa) << what;
        std::vector<double> dst = dst_init;
        std::vector<double> src = src_init;
        fn(dst.data() + offset, src.data() + offset, n);
        SetIsaForTest(previous);
        if (isa == Isa::kScalar) {
          reference = dst;
        } else {
          // dst.data() is null for the n=0, offset=0 case; memcmp's nonnull
          // contract (UBSan-enforced) forbids it even with a zero length.
          ASSERT_EQ(0, dst.empty()
                           ? 0
                           : std::memcmp(reference.data(), dst.data(),
                                         dst.size() * sizeof(double)))
              << what << " diverges from scalar on " << IsaName(isa)
              << " at n=" << n << " offset=" << offset;
        }
      }
    }
  }
}

TEST(SimdIsa, DispatchCoversAllSupportedLevels) {
  const Isa previous = SetIsaForTest(Isa::kScalar);
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  EXPECT_STREQ(IsaName(Isa::kScalar), "scalar");
  EXPECT_STREQ(IsaName(Isa::kAvx2), "avx2");
  if (Avx2Supported()) {
    SetIsaForTest(Isa::kAvx2);
    EXPECT_EQ(ActiveIsa(), Isa::kAvx2);
  }
  SetIsaForTest(previous);
  EXPECT_EQ(ActiveIsa(), previous);
}

TEST(SimdKernels, AddIntoBitIdentical) {
  ExpectBitIdenticalAcrossIsas(
      [](double* dst, const double* src, size_t n) { AddInto(dst, src, n); },
      "AddInto");
}

TEST(SimdKernels, AddScaledIntoBitIdentical) {
  // Several scales, including ones that make contraction-vs-separate
  // rounding visible (irrational-ish multipliers) and sign flips.
  for (double scale : {1.0, -1.0, 0.5, -0.3333333333333333, 1e-7, 3.7e5}) {
    ExpectBitIdenticalAcrossIsas(
        [scale](double* dst, const double* src, size_t n) {
          AddScaledInto(dst, src, scale, n);
        },
        "AddScaledInto");
  }
}

TEST(SimdKernels, MaxIntoBitIdentical) {
  ExpectBitIdenticalAcrossIsas(
      [](double* dst, const double* src, size_t n) { MaxInto(dst, src, n); },
      "MaxInto");
}

TEST(SimdKernels, MaxIntoFollowsVmaxpdTieConvention) {
  // (dst > src) ? dst : src — equal values and +0/-0 pairs take src, on
  // every ISA. Checked bitwise via copysign.
  for (Isa isa : SupportedIsas()) {
    const Isa previous = SetIsaForTest(isa);
    double dst[8] = {-0.0, 0.0, 1.0, -1.0, 2.0, -0.0, 5.0, 3.0};
    const double src[8] = {0.0, -0.0, 1.0, -2.0, 3.0, -0.0, 4.0, 3.0};
    MaxInto(dst, src, 8);
    SetIsaForTest(previous);
    EXPECT_EQ(std::signbit(dst[0]), false) << IsaName(isa);   // src +0.0
    EXPECT_EQ(std::signbit(dst[1]), true) << IsaName(isa);    // src -0.0
    EXPECT_EQ(dst[2], 1.0);
    EXPECT_EQ(dst[3], -1.0);
    EXPECT_EQ(dst[4], 3.0);
    EXPECT_EQ(std::signbit(dst[5]), true) << IsaName(isa);
    EXPECT_EQ(dst[6], 5.0);
    EXPECT_EQ(dst[7], 3.0);
  }
}

}  // namespace
}  // namespace simd
}  // namespace stburst
