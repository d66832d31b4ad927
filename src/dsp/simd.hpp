// Width-agnostic SIMD lane layer for the two dispatched kernels, the range
// FFT and the beat-tone mixer: a tiny set of lane structs (load/store/
// broadcast/add/sub/mul, the mixer's div/sqrt, and the FFT's three data
// movers -- interleaving store, deinterleave, reverse -- over a register of
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
//   store4            -- interleaving 4-way store, lane i's four elements
//                        contiguous at p + i*stride: p[i*stride + k] = r_k[i]
//                        (a 4x4 transpose on the way out)
//   deinterleave      -- split 2*width consecutive elems held as (lo, hi)
//                        into even[i] = elem 2i and odd[i] = elem 2i + 1;
//                        with two loads in front, a deinterleaving load
//   reverse           -- the register's elements in reverse order
// The last three only move data, so they cannot break bit identity; at
// width 1 they are plain stores, plain loads and the identity.

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
    static void store4(elem* p, std::size_t, reg a, reg b, reg c, reg d) noexcept {
        p[0] = a;
        p[1] = b;
        p[2] = c;
        p[3] = d;
    }
    static void deinterleave(reg lo, reg hi, reg& even, reg& odd) noexcept {
        even = lo;
        odd = hi;
    }
    static reg reverse(reg a) noexcept { return a; }
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
    static void store4(elem* p, std::size_t stride, reg a, reg b, reg c,
                       reg d) noexcept {
        const reg ab_lo = _mm256_unpacklo_pd(a, b);  // a0 b0 a2 b2
        const reg ab_hi = _mm256_unpackhi_pd(a, b);  // a1 b1 a3 b3
        const reg cd_lo = _mm256_unpacklo_pd(c, d);  // c0 d0 c2 d2
        const reg cd_hi = _mm256_unpackhi_pd(c, d);  // c1 d1 c3 d3
        _mm256_storeu_pd(p, _mm256_permute2f128_pd(ab_lo, cd_lo, 0x20));
        _mm256_storeu_pd(p + stride, _mm256_permute2f128_pd(ab_hi, cd_hi, 0x20));
        _mm256_storeu_pd(p + 2 * stride, _mm256_permute2f128_pd(ab_lo, cd_lo, 0x31));
        _mm256_storeu_pd(p + 3 * stride, _mm256_permute2f128_pd(ab_hi, cd_hi, 0x31));
    }
    static void deinterleave(reg lo, reg hi, reg& even, reg& odd) noexcept {
        // lo = x0 x1 x2 x3, hi = x4 x5 x6 x7
        even = _mm256_permute4x64_pd(_mm256_unpacklo_pd(lo, hi), 0xD8);  // x0 x4 x2 x6
        odd = _mm256_permute4x64_pd(_mm256_unpackhi_pd(lo, hi), 0xD8);   // x1 x5 x3 x7
    }
    static reg reverse(reg a) noexcept { return _mm256_permute4x64_pd(a, 0x1B); }
};
#endif  // __AVX2__

}  // namespace witrack::dsp::simd
