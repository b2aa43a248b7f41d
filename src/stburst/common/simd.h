// Runtime-dispatched SIMD kernels for the mining hot paths.
//
// Scope is deliberately narrow: only *element-wise* operations, where the
// vector lanes carry independent columns and no floating-point fold is
// reassociated. Every kernel is therefore bit-identical across instruction
// sets — the AVX2 and scalar paths produce the same doubles, so the miners'
// parity guarantees (thread-count invariance, online/batch equivalence,
// shared-binning vs per-call equality) hold regardless of which CPU runs
// them. Horizontal reductions (sums across a row) are NOT
// offered precisely because they would break that contract.
//
// Dispatch policy: the ladder is scalar → AVX2, resolved once per process.
// AVX2 runs when the binary carries it, the CPU reports it and the
// environment does not veto it (STBURST_NO_AVX2=1 forces scalar). The
// vector kernels are compiled with function-level target attributes, so the
// rest of the library keeps the portable baseline and the binary stays
// runnable on any x86-64 (and the scalar path builds cleanly on non-x86).

#ifndef STBURST_COMMON_SIMD_H_
#define STBURST_COMMON_SIMD_H_

#include <cstddef>

namespace stburst {
namespace simd {

/// Instruction sets the kernels can dispatch to, narrowest first.
enum class Isa { kScalar, kAvx2 };

/// True when this binary carries AVX2 kernels and the CPU supports them
/// (independent of STBURST_NO_AVX2).
bool Avx2Supported();

/// The ISA the kernels currently dispatch to. Resolved once on first use:
/// AVX2 when supported and STBURST_NO_AVX2 is not 1, scalar otherwise.
Isa ActiveIsa();

/// "avx2" / "scalar" — for logs and bench output.
const char* IsaName(Isa isa);

/// Test/bench hook: force the dispatch to `isa` (kAvx2 requires
/// Avx2Supported()). Not thread-safe — call while no kernel is running,
/// e.g. before spawning workers. Returns the previously active ISA so
/// callers can restore it.
Isa SetIsaForTest(Isa isa);

/// dst[i] += src[i] for i in [0, n). Element-wise, no reassociation:
/// bit-identical on every ISA. The buffers must not overlap.
void AddInto(double* dst, const double* src, size_t n);

/// dst[i] += scale * src[i] for i in [0, n). The multiply and add round
/// separately on every path (this translation unit builds with
/// -ffp-contract=off, so neither the scalar loop nor the vector bodies may
/// contract to FMA): bit-identical on every ISA. Buffers must not overlap.
void AddScaledInto(double* dst, const double* src, double scale, size_t n);

/// dst[i] = max(dst[i], src[i]) for i in [0, n), with exactly the
/// vmaxpd tie/zero convention: (dst > src) ? dst : src, so equal values
/// and +0/-0 pairs take src. Inputs must not be NaN. Element-wise,
/// bit-identical on every ISA. Buffers must not overlap.
void MaxInto(double* dst, const double* src, size_t n);

}  // namespace simd
}  // namespace stburst

#endif  // STBURST_COMMON_SIMD_H_
