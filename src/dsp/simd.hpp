// Width-agnostic SIMD lane layer for the two dispatched kernels, the range
// FFT and the beat-tone mixer: a tiny set of lane structs (load/store/
// broadcast/add/sub/mul, plus the mixer's div/sqrt, over a register of
// `width` elements) with scalar and AVX2 (256-bit) implementations, plus
// the runtime dispatch level the per-ISA kernel translation units are
// selected by.
//
// The butterfly code in fft_kernels_impl.hpp and the tone loop in
// hw/mixer_kernels_impl.hpp are written once as templates over a lane
// struct; the scalar level is instantiated with the rest of the library and
// the AVX2 level in its own -mavx2 translation unit, and dispatch picks
// AVX2 at runtime when the CPU supports it. Every lane performs exactly the
// same IEEE-754 operations per element -- no FMA, no reassociation -- so
// both dispatch levels produce bit-identical results (asserted by
// tests/test_fft.cpp and tests/test_hw.cpp).
//
// The WITRACK_SIMD environment variable (scalar | avx2) selects the initial
// level for testing and triage: `scalar` forces the scalar level, and any
// other value (or none) keeps the detected one.
#pragma once

#include <cmath>
#include <cstddef>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace witrack::dsp::simd {

/// Dispatch levels, ordered. x86-64 CPUs without AVX2 and non-x86 builds
/// detect kScalar.
enum class Level : int {
    kScalar = 0,
    kAvx2 = 1,
};

/// "scalar" / "avx2".
const char* to_string(Level level) noexcept;

/// Best level this CPU supports (queried once, constant thereafter).
Level detect() noexcept;

/// The level the kernels dispatch on: detect(), lowered to kScalar by
/// WITRACK_SIMD=scalar (read once, on first use), or the level of the most
/// recent force() call. Never above detect().
Level active() noexcept;

/// Test hook: override the active level (clamped to detect() -- forcing a
/// level the hardware lacks selects the best supported one instead).
/// Returns the level actually activated.
Level force(Level level) noexcept;

// ------------------------------------------------------------------ lanes
//
// A lane struct provides:
//   elem              -- the element type (double)
//   reg               -- the register type holding `width` elems
//   width             -- elements per register
//   load / store      -- unaligned contiguous access
//   set1              -- broadcast one element to all positions
//   add / sub / mul   -- elementwise IEEE-754 arithmetic
//   div / sqrt        -- correctly-rounded IEEE-754 divide / square root,
//                        so they keep the cross-level bit-identity contract

/// Width-1 fallback lane; also the tail lane of every vector loop.
template <class T>
struct Scalar {
    using elem = T;
    using reg = T;
    static constexpr std::size_t width = 1;
    static reg load(const elem* p) noexcept { return *p; }
    static void store(elem* p, reg v) noexcept { *p = v; }
    static reg set1(elem v) noexcept { return v; }
    static reg add(reg a, reg b) noexcept { return a + b; }
    static reg sub(reg a, reg b) noexcept { return a - b; }
    static reg mul(reg a, reg b) noexcept { return a * b; }
    static reg div(reg a, reg b) noexcept { return a / b; }
    static reg sqrt(reg a) noexcept { return std::sqrt(a); }
};

using ScalarD = Scalar<double>;

#if defined(__AVX2__)
struct AvxD {
    using elem = double;
    using reg = __m256d;
    static constexpr std::size_t width = 4;
    static reg load(const elem* p) noexcept { return _mm256_loadu_pd(p); }
    static void store(elem* p, reg v) noexcept { _mm256_storeu_pd(p, v); }
    static reg set1(elem v) noexcept { return _mm256_set1_pd(v); }
    static reg add(reg a, reg b) noexcept { return _mm256_add_pd(a, b); }
    static reg sub(reg a, reg b) noexcept { return _mm256_sub_pd(a, b); }
    static reg mul(reg a, reg b) noexcept { return _mm256_mul_pd(a, b); }
    static reg div(reg a, reg b) noexcept { return _mm256_div_pd(a, b); }
    static reg sqrt(reg a) noexcept { return _mm256_sqrt_pd(a); }
};
#endif  // __AVX2__

}  // namespace witrack::dsp::simd
