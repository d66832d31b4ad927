// Width-agnostic SIMD lane layer for the FFT kernel engine: a tiny set of
// lane structs (load/store/broadcast/add/sub/mul over a register of `width`
// elements) with scalar, SSE2 (128-bit) and AVX2 (256-bit) implementations,
// plus the runtime dispatch level the per-ISA kernel translation units are
// selected by.
//
// The butterfly code in fft_kernels_impl.hpp is written once as templates
// over a lane struct; each ISA gets its own translation unit (compiled with
// the matching -m flags) that instantiates them, and dispatch picks the
// best level the CPU supports at runtime. Every lane performs exactly the
// same IEEE-754 operations per element -- no FMA, no reassociation -- so
// all dispatch levels produce bit-identical results (asserted by
// tests/test_fft.cpp).
//
// The WITRACK_SIMD environment variable (scalar | sse2 | avx2) clamps the
// active level below the detected one for testing and triage; requests the
// hardware cannot honor fall back to the best supported level.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#if defined(__SSE2__) || defined(__AVX2__)
#include <immintrin.h>
#endif

namespace witrack::dsp::simd {

/// Dispatch levels, ordered: higher levels strictly require the lower
/// ones' ISA. kSse2 is the x86-64 baseline; non-x86 builds detect kScalar.
enum class Level : int {
    kScalar = 0,
    kSse2 = 1,
    kAvx2 = 2,
};

/// "scalar" / "sse2" / "avx2".
const char* to_string(Level level) noexcept;

/// Best level this CPU supports (queried once, constant thereafter).
Level detect() noexcept;

/// The level the kernels dispatch on: detect(), clamped down by the
/// WITRACK_SIMD environment variable (read once, on first use) or by the
/// most recent force() call. Never above detect().
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
//   div / sqrt        -- correctly-rounded IEEE-754 divide / square root
//   min / max         -- x86 minpd/maxpd semantics: min(a,b) = a < b ? a : b,
//                        max(a,b) = a > b ? a : b (second operand wins on
//                        equal or NaN), emulated exactly by the scalar lane
//   cmplt/cmple/cmpgt/cmpge -- ordered compares producing an all-ones /
//                        all-zeros bit mask per element (false for NaN)
//   and_ / or_ / andnot -- bitwise mask ops (andnot(a, b) = ~a & b)
//   blend             -- blend(mask, a, b): a where the mask is set, b
//                        elsewhere (full-width masks only)
//
// div and sqrt are correctly rounded by IEEE-754, the compares and bit ops
// are exact, and min/max share one tie/NaN rule across lanes -- so the new
// ops keep the cross-level bit-identity contract the arithmetic trio set.

/// Width-1 fallback lane; also the tail lane of every vector loop.
template <class T>
struct Scalar {
    using elem = T;
    using reg = T;
    using bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
    static constexpr std::size_t width = 1;
    static reg load(const elem* p) noexcept { return *p; }
    static void store(elem* p, reg v) noexcept { *p = v; }
    static reg set1(elem v) noexcept { return v; }
    static reg add(reg a, reg b) noexcept { return a + b; }
    static reg sub(reg a, reg b) noexcept { return a - b; }
    static reg mul(reg a, reg b) noexcept { return a * b; }
    static reg div(reg a, reg b) noexcept { return a / b; }
    static reg sqrt(reg a) noexcept { return std::sqrt(a); }
    static reg min(reg a, reg b) noexcept { return a < b ? a : b; }
    static reg max(reg a, reg b) noexcept { return a > b ? a : b; }
    static reg cmplt(reg a, reg b) noexcept { return mask(a < b); }
    static reg cmple(reg a, reg b) noexcept { return mask(a <= b); }
    static reg cmpgt(reg a, reg b) noexcept { return mask(a > b); }
    static reg cmpge(reg a, reg b) noexcept { return mask(a >= b); }
    static reg and_(reg a, reg b) noexcept {
        return std::bit_cast<reg>(static_cast<bits>(std::bit_cast<bits>(a) &
                                                    std::bit_cast<bits>(b)));
    }
    static reg or_(reg a, reg b) noexcept {
        return std::bit_cast<reg>(static_cast<bits>(std::bit_cast<bits>(a) |
                                                    std::bit_cast<bits>(b)));
    }
    static reg andnot(reg a, reg b) noexcept {
        return std::bit_cast<reg>(static_cast<bits>(~std::bit_cast<bits>(a) &
                                                    std::bit_cast<bits>(b)));
    }
    static reg blend(reg m, reg a, reg b) noexcept {
        return or_(and_(m, a), andnot(m, b));
    }

  private:
    static reg mask(bool b) noexcept {
        return std::bit_cast<reg>(b ? static_cast<bits>(~bits{0}) : bits{0});
    }
};

using ScalarD = Scalar<double>;

#if defined(__SSE2__)
struct SseD {
    using elem = double;
    using reg = __m128d;
    static constexpr std::size_t width = 2;
    static reg load(const elem* p) noexcept { return _mm_loadu_pd(p); }
    static void store(elem* p, reg v) noexcept { _mm_storeu_pd(p, v); }
    static reg set1(elem v) noexcept { return _mm_set1_pd(v); }
    static reg add(reg a, reg b) noexcept { return _mm_add_pd(a, b); }
    static reg sub(reg a, reg b) noexcept { return _mm_sub_pd(a, b); }
    static reg mul(reg a, reg b) noexcept { return _mm_mul_pd(a, b); }
    static reg div(reg a, reg b) noexcept { return _mm_div_pd(a, b); }
    static reg sqrt(reg a) noexcept { return _mm_sqrt_pd(a); }
    static reg min(reg a, reg b) noexcept { return _mm_min_pd(a, b); }
    static reg max(reg a, reg b) noexcept { return _mm_max_pd(a, b); }
    static reg cmplt(reg a, reg b) noexcept { return _mm_cmplt_pd(a, b); }
    static reg cmple(reg a, reg b) noexcept { return _mm_cmple_pd(a, b); }
    static reg cmpgt(reg a, reg b) noexcept { return _mm_cmpgt_pd(a, b); }
    static reg cmpge(reg a, reg b) noexcept { return _mm_cmpge_pd(a, b); }
    static reg and_(reg a, reg b) noexcept { return _mm_and_pd(a, b); }
    static reg or_(reg a, reg b) noexcept { return _mm_or_pd(a, b); }
    static reg andnot(reg a, reg b) noexcept { return _mm_andnot_pd(a, b); }
    static reg blend(reg m, reg a, reg b) noexcept {
        return or_(and_(m, a), andnot(m, b));
    }
};
#endif  // __SSE2__

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
    static reg min(reg a, reg b) noexcept { return _mm256_min_pd(a, b); }
    static reg max(reg a, reg b) noexcept { return _mm256_max_pd(a, b); }
    static reg cmplt(reg a, reg b) noexcept {
        return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
    }
    static reg cmple(reg a, reg b) noexcept {
        return _mm256_cmp_pd(a, b, _CMP_LE_OQ);
    }
    static reg cmpgt(reg a, reg b) noexcept {
        return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
    }
    static reg cmpge(reg a, reg b) noexcept {
        return _mm256_cmp_pd(a, b, _CMP_GE_OQ);
    }
    static reg and_(reg a, reg b) noexcept { return _mm256_and_pd(a, b); }
    static reg or_(reg a, reg b) noexcept { return _mm256_or_pd(a, b); }
    static reg andnot(reg a, reg b) noexcept { return _mm256_andnot_pd(a, b); }
    static reg blend(reg m, reg a, reg b) noexcept {
        return or_(and_(m, a), andnot(m, b));
    }
};
#endif  // __AVX2__

}  // namespace witrack::dsp::simd
