// Lane-templated passes shared by every dispatch level of the Pow2Kernel
// engine, and the real-input transform built on them. The stage
// arithmetic is the scalar radix-4 kernel of PR 5, ported onto the
// simd.hpp lane vocabulary: a lane performs the same IEEE-754 add/sub/mul
// per element as the scalar code (no FMA -- the kernel translation units
// are additionally built with -ffp-contract=off so the compiler cannot
// contract on wider -march targets), which is what makes all dispatch
// levels bit-identical.
//
// Passes run at vector width:
//   - kStride1Radix16: the first stage has stride 1, so it is vectorized
//     across butterflies -- vector twiddle loads, and each butterfly's
//     contiguous outputs leave through the interleaving store.
//   - kRadix4, kRadix16, kRadix8, kRadix2: vectorized along the stride q,
//     which is contiguous in memory. A kRadix4 pass of stride 1 (a first
//     stage pruned below n/4 live inputs, or the whole of a 4- or 8-point
//     plan) runs in the scalar tail.
// The fused passes (kStride1Radix16, kRadix16, kRadix8) keep the first
// stage's outputs in registers and feed them straight to the second, so a
// pair of stages costs one pass over memory instead of two. The real
// transform fuses further: its first pass forms the windowed r2c pack on
// load (Windowed), and a kRadix8 last pass -- the one the range pipeline's
// 2048-point half transform ends in -- untangles the half spectrum from
// registers (untangle_last_pass). A fused pass forms the same elements
// from the same operands in the same order as the steps it replaces, so it
// changes no bit of the result.
//
// This header is included by the per-ISA translation units
// (fft_kernels.cpp, fft_kernels_avx2.cpp), each of which instantiates the
// templates with its lane and exposes the plain entry points declared at
// the bottom; dispatch lives in fft_kernels.cpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

#include "dsp/fft_kernels.hpp"
#include "dsp/simd.hpp"

namespace witrack::dsp::kernels::detail {

// The butterfly helpers below must inline into their loops: out of line,
// their register arrays round-trip through memory on every call, which
// costs more than the passes themselves. GCC's heuristics stop inlining
// them once a translation unit instantiates every pass, so force it.
#define WITRACK_KERNEL_INLINE [[gnu::always_inline]] inline

/// ceil(t / s); exact division everywhere the pruning invariant holds.
inline std::size_t ceil_div(std::size_t t, std::size_t s) {
    return (t + s - 1) / s;
}

/// Vector-main + scalar-tail driver: runs `body` over [0, count) with lane
/// L for the aligned span and the width-1 lane of the same element type
/// for the remainder. `body` is a generic lambda invoked as body<V>(i).
template <class L, class Body>
WITRACK_KERNEL_INLINE void lane_loop(std::size_t count, Body&& body) {
    using S = simd::Scalar<typename L::elem>;
    std::size_t i = 0;
    if constexpr (L::width > 1) {
        for (; i + L::width <= count; i += L::width)
            body.template operator()<L>(i);
    }
    for (; i < count; ++i) body.template operator()<S>(i);
}

// ------------------------------------------------------ complex lanes

/// One complex value per lane: a register of real parts and one of
/// imaginary parts.
template <class V>
struct Cx {
    typename V::reg r, i;
};

template <class V>
WITRACK_KERNEL_INLINE Cx<V> load_cx(const double* re, const double* im, std::size_t k) {
    return {V::load(re + k), V::load(im + k)};
}

template <class V>
WITRACK_KERNEL_INLINE void store_cx(double* re, double* im, std::size_t k,
                                    const Cx<V>& v) {
    V::store(re + k, v.r);
    V::store(im + k, v.i);
}

/// u * t, in the kernel's operand order.
template <class V>
WITRACK_KERNEL_INLINE Cx<V> twiddle(const Cx<V>& u, const Cx<V>& t) {
    return {V::sub(V::mul(u.r, t.r), V::mul(u.i, t.i)),
            V::add(V::mul(u.r, t.i), V::mul(u.i, t.r))};
}

/// The twiddles w1, w2, w3 of one butterfly position.
template <class V>
struct Twiddles {
    Cx<V> w1, w2, w3;
};

/// Butterfly p's twiddles from a stage table of m entries per run,
/// broadcast to every lane.
template <class V>
WITRACK_KERNEL_INLINE Twiddles<V> twiddles_at(const double* table, std::size_t m,
                                              std::size_t p) {
    return {{V::set1(table[p]), V::set1(table[m + p])},
            {V::set1(table[2 * m + p]), V::set1(table[3 * m + p])},
            {V::set1(table[4 * m + p]), V::set1(table[5 * m + p])}};
}

/// The twiddles of butterflies p .. p + width - 1, one per lane.
template <class V>
WITRACK_KERNEL_INLINE Twiddles<V> twiddles_from(const double* table, std::size_t m,
                                                std::size_t p) {
    return {{V::load(table + p), V::load(table + m + p)},
            {V::load(table + 2 * m + p), V::load(table + 3 * m + p)},
            {V::load(table + 4 * m + p), V::load(table + 5 * m + p)}};
}

/// Operand source of a pass: the SoA planes the previous pass wrote.
struct Planes {
    const double* re;
    const double* im;

    template <class V>
    [[gnu::always_inline]] Cx<V> load(std::size_t k) const {
        return load_cx<V>(re, im, k);
    }
};

/// Operand source of the first pass of a real transform: the windowed r2c
/// pack z_k = x_{2k} w_{2k} + i x_{2k+1} w_{2k+1}, formed on load, so the
/// packed sequence is never written out. The products are the pack's own.
struct Windowed {
    const double* x;
    const double* w;

    template <class V>
    [[gnu::always_inline]] Cx<V> load(std::size_t k) const {
        const auto lo = V::mul(V::load(x + 2 * k), V::load(w + 2 * k));
        const auto hi = V::mul(V::load(x + 2 * k + V::width),
                               V::load(w + 2 * k + V::width));
        Cx<V> z;
        V::deinterleave(lo, hi, z.r, z.i);
        return z;
    }
};

/// Load the first `Live` operands of the quartet {base + j*n4}; the rest
/// are structurally zero and never read.
template <class V, int Live, class Src>
WITRACK_KERNEL_INLINE void load_quartet(const Src& src, std::size_t base,
                                        std::size_t n4, Cx<V>* x) {
    for (int j = 0; j < Live; ++j)
        x[j] = src.template load<V>(base + static_cast<std::size_t>(j) * n4);
}

/// Radix-4 butterfly on operands (a, b, c, d) = x[0..3], of which the
/// first `Live` are live: y0 = (a + c) + (b + d), y1..y3 = w_k * t_k. With
/// fewer than four live operands the structurally zero ones are folded
/// out. The dense form computes j = i*(b - d) as (d.i - b.i, b.r - d.r)
/// and forms t1 = (a - c) - j, t3 = (a - c) + j; with d zero, negation
/// then subtraction is exactly addition in IEEE-754, so the folded add/sub
/// forms below are the ones the pruned schedule has always used.
template <class V, int Live>
WITRACK_KERNEL_INLINE void butterfly4(const Cx<V>* x, const Twiddles<V>& w, Cx<V>* y) {
    const Cx<V>& a = x[0];
    Cx<V> t1, t2, t3;
    if constexpr (Live == 4) {
        const Cx<V>& b = x[1];
        const Cx<V>& c = x[2];
        const Cx<V>& d = x[3];
        const Cx<V> apc{V::add(a.r, c.r), V::add(a.i, c.i)};
        const Cx<V> amc{V::sub(a.r, c.r), V::sub(a.i, c.i)};
        const Cx<V> bpd{V::add(b.r, d.r), V::add(b.i, d.i)};
        const auto jr = V::sub(d.i, b.i), ji = V::sub(b.r, d.r);
        y[0] = {V::add(apc.r, bpd.r), V::add(apc.i, bpd.i)};
        t1 = {V::sub(amc.r, jr), V::sub(amc.i, ji)};
        t2 = {V::sub(apc.r, bpd.r), V::sub(apc.i, bpd.i)};
        t3 = {V::add(amc.r, jr), V::add(amc.i, ji)};
    } else if constexpr (Live == 3) {  // d structurally zero
        const Cx<V>& b = x[1];
        const Cx<V>& c = x[2];
        const Cx<V> apc{V::add(a.r, c.r), V::add(a.i, c.i)};
        const Cx<V> amc{V::sub(a.r, c.r), V::sub(a.i, c.i)};
        y[0] = {V::add(apc.r, b.r), V::add(apc.i, b.i)};
        t1 = {V::add(amc.r, b.i), V::sub(amc.i, b.r)};
        t2 = {V::sub(apc.r, b.r), V::sub(apc.i, b.i)};
        t3 = {V::sub(amc.r, b.i), V::add(amc.i, b.r)};
    } else if constexpr (Live == 2) {  // c and d structurally zero
        const Cx<V>& b = x[1];
        y[0] = {V::add(a.r, b.r), V::add(a.i, b.i)};
        t1 = {V::add(a.r, b.i), V::sub(a.i, b.r)};  // a - i*b
        t2 = {V::sub(a.r, b.r), V::sub(a.i, b.i)};
        t3 = {V::sub(a.r, b.i), V::add(a.i, b.r)};  // a + i*b
    } else {  // only a live
        static_assert(Live == 1);
        y[0] = a;
        t1 = t2 = t3 = a;
    }
    y[1] = twiddle<V>(w.w1, t1);
    y[2] = twiddle<V>(w.w2, t2);
    y[3] = twiddle<V>(w.w3, t3);
}

// ------------------------------------------------------------- passes
//
// A stage of stride s and m butterflies per sub-transform reads the
// quartet {s*p + q + k*n4} and writes {4*s*p + q + k*s}, k = 0..3
// (fft_kernels.cpp explains the schedule and its pruning regions).

/// Group (p, q) of one radix-4 stage, its first `Live` operands live: y[k]
/// lands at 4*s*p + q + s*k.
template <class V, int Live = 4, class Src>
WITRACK_KERNEL_INLINE void radix4_group(const FftStage& st, const double* tw,
                                        std::size_t n4, const Src& src, std::size_t p,
                                        std::size_t q, Cx<V>* y) {
    Cx<V> x[4];
    load_quartet<V, Live>(src, st.stride * p + q, n4, x);
    butterfly4<V, Live>(x, twiddles_at<V>(tw + st.tw_offset, st.m, p), y);
}

/// Butterflies p in [p_begin, p_end) of one radix-4 stage, each with
/// `Live` live operands, vectorized along q.
template <class L, int Live, class Src>
void radix4_span(const FftStage& st, const double* tw, std::size_t n4,
                 const Src& src, double* dr, double* di, std::size_t p_begin,
                 std::size_t p_end) {
    const std::size_t s = st.stride;
    for (std::size_t p = p_begin; p < p_end; ++p) {
        lane_loop<L>(s, [&]<class V>(std::size_t q) {
            Cx<V> y[4];
            radix4_group<V, Live>(st, tw, n4, src, p, q, y);
            for (std::size_t k = 0; k < 4; ++k)
                store_cx<V>(dr, di, 4 * s * p + q + k * s, y[k]);
        });
    }
}

/// Region bounds of a radix-4 stage over a live input prefix [0, live):
/// operand k of butterfly p is live iff p < bound[k].
inline void live_bounds(std::size_t live, std::size_t n4, std::size_t stride,
                        std::size_t (&bound)[4]) {
    for (std::size_t k = 0; k < 4; ++k) {
        const std::size_t cut = k * n4;
        bound[k] = ceil_div(std::min(live > cut ? live - cut : 0, n4), stride);
    }
}

/// Live operands of butterfly p: 4, 3, 2, 1, or 0 past bound[0].
WITRACK_KERNEL_INLINE int live_operands(const std::size_t (&bound)[4], std::size_t p) {
    int count = 0;
    while (count < 4 && p < bound[count]) ++count;
    return count;
}

/// One radix-4 stage over a live input prefix [0, live): the p-range
/// splits into regions of 4, 3, 2 and 1 live operands, and the all-zero
/// tail is skipped (its destination is never read back).
template <class L, class Src>
void radix4_pass(const FftStage& st, const double* tw, std::size_t n,
                 std::size_t live, const Src& src, double* dr, double* di) {
    const std::size_t n4 = n / 4;
    std::size_t p[4];
    live_bounds(live, n4, st.stride, p);
    radix4_span<L, 4>(st, tw, n4, src, dr, di, 0, p[3]);
    radix4_span<L, 3>(st, tw, n4, src, dr, di, p[3], p[2]);
    radix4_span<L, 2>(st, tw, n4, src, dr, di, p[2], p[1]);
    radix4_span<L, 1>(st, tw, n4, src, dr, di, p[1], p[0]);
}

/// The stride-1 stage a and the stride-4 stage b in one pass, vectorized
/// across stage-b butterflies pb (the radix16_pass grouping below with
/// s = 1). Stage a may read a pruned input but must write a dense output
/// (live >= n/4). Its butterflies pb + ka*m_b keep their own live-operand
/// regions: the pb-range is cut wherever any of the four changes region,
/// so each segment runs one butterfly form per ka.
template <class L, class Src>
void stride1_radix16_pass(const FftStage& a, const FftStage& b, const double* tw,
                          std::size_t n, std::size_t live, const Src& src,
                          double* dr, double* di) {
    const std::size_t n4 = n / 4;
    const std::size_t mb = b.m;
    const double* ta = tw + a.tw_offset;
    const double* tb = tw + b.tw_offset;
    std::size_t bound[4];
    live_bounds(live, n4, 1, bound);
    std::size_t cuts[16] = {0, mb};  // 2 ends + up to 4 x 3 region changes
    std::size_t cut_count = 2;
    for (std::size_t ka = 0; ka < 4; ++ka) {
        for (std::size_t k = 1; k < 4; ++k) {
            const std::size_t at = bound[k] - std::min(bound[k], ka * mb);
            if (at > 0 && at < mb) cuts[cut_count++] = at;
        }
    }
    std::sort(cuts, cuts + cut_count);
    for (std::size_t c = 0; c + 1 < cut_count; ++c) {
        const std::size_t begin = cuts[c];
        if (cuts[c + 1] == begin) continue;
        int forms[4];
        for (std::size_t ka = 0; ka < 4; ++ka)
            forms[ka] = live_operands(bound, begin + ka * mb);
        lane_loop<L>(cuts[c + 1] - begin, [&]<class V>(std::size_t i) {
            const std::size_t pb = begin + i;
            Cx<V> mid[4][4];  // mid[ka][r]: output r of butterfly pb + ka*m_b
            for (std::size_t ka = 0; ka < 4; ++ka) {
                const std::size_t pa = pb + ka * mb;
                const Twiddles<V> wa = twiddles_from<V>(ta, n4, pa);
                Cx<V> x[4];
                switch (forms[ka]) {
                    case 4:
                        load_quartet<V, 4>(src, pa, n4, x);
                        butterfly4<V, 4>(x, wa, mid[ka]);
                        break;
                    case 3:
                        load_quartet<V, 3>(src, pa, n4, x);
                        butterfly4<V, 3>(x, wa, mid[ka]);
                        break;
                    case 2:
                        load_quartet<V, 2>(src, pa, n4, x);
                        butterfly4<V, 2>(x, wa, mid[ka]);
                        break;
                    default:
                        load_quartet<V, 1>(src, pa, n4, x);
                        butterfly4<V, 1>(x, wa, mid[ka]);
                        break;
                }
            }
            const Twiddles<V> wb = twiddles_from<V>(tb, mb, pb);
            Cx<V> y[4][4];  // y[r][k]: output k of stage-b butterfly (pb, r)
            for (std::size_t r = 0; r < 4; ++r) {
                const Cx<V> x[4] = {mid[0][r], mid[1][r], mid[2][r], mid[3][r]};
                butterfly4<V, 4>(x, wb, y[r]);
            }
            // Output k of (pb, r) lands at 16*pb + r + 4*k.
            for (std::size_t k = 0; k < 4; ++k) {
                V::store4(dr + 16 * pb + 4 * k, 16, y[0][k].r, y[1][k].r,
                          y[2][k].r, y[3][k].r);
                V::store4(di + 16 * pb + 4 * k, 16, y[0][k].i, y[1][k].i,
                          y[2][k].i, y[3][k].i);
            }
        });
    }
}

// Dense passes group their work: a group computes all outputs of a few
// butterflies in registers, and `y[t]` (t < T, the pass's radix) lands at
// base + s*t for the pass's stride s. As a real transform's last pass the
// radix-8 groups are also what the fused untangle below pairs up.

/// Group (pb, q) of two dense radix-4 stages a (stride s) and b (stride
/// 4s): stage-b butterfly (pb, s*r + q) reads output r of the stage-a
/// butterflies pb + ka*m_b (ka = 0..3), so the group computes those four
/// stage-a butterflies into registers and then the four stage-b ones.
/// y[r + 4k], output k of (pb, s*r + q), lands at 16*s*pb + q + s*(r + 4k).
template <class V, class Src>
WITRACK_KERNEL_INLINE void radix16_group(const FftStage& a, const FftStage& b,
                                         const double* tw, std::size_t n4,
                                         const Src& src, std::size_t pb, std::size_t q,
                                         Cx<V>* y) {
    Cx<V> mid[4][4];  // mid[ka][r]: output r of butterfly pb + ka*m_b
    for (std::size_t ka = 0; ka < 4; ++ka)
        radix4_group<V>(a, tw, n4, src, pb + ka * b.m, q, mid[ka]);
    const Twiddles<V> wb = twiddles_at<V>(tw + b.tw_offset, b.m, pb);
    for (std::size_t r = 0; r < 4; ++r) {
        const Cx<V> x[4] = {mid[0][r], mid[1][r], mid[2][r], mid[3][r]};
        Cx<V> out[4];
        butterfly4<V, 4>(x, wb, out);
        for (std::size_t k = 0; k < 4; ++k) y[r + 4 * k] = out[k];
    }
}

/// Group q of the last dense radix-4 stage a (m = 2, stride s = n/8) and
/// the radix-2 fixup (stride n/2 = 4s, twiddle 1): fixup butterfly q + s*r
/// pairs output r of stage-a butterflies 0 and 1. y[t] lands at q + s*t.
template <class V, class Src>
WITRACK_KERNEL_INLINE void radix8_group(const FftStage& a, const double* tw,
                                        std::size_t n4, const Src& src, std::size_t q,
                                        Cx<V>* y) {
    Cx<V> lo[4], hi[4];
    radix4_group<V>(a, tw, n4, src, 0, q, lo);
    radix4_group<V>(a, tw, n4, src, 1, q, hi);
    for (std::size_t r = 0; r < 4; ++r) {
        y[r] = {V::add(lo[r].r, hi[r].r), V::add(lo[r].i, hi[r].i)};
        y[r + 4] = {V::sub(lo[r].r, hi[r].r), V::sub(lo[r].i, hi[r].i)};
    }
}

/// Two dense radix-4 stages in one pass (radix16_group).
template <class L, class Src>
void radix16_pass(const FftStage& a, const FftStage& b, const double* tw,
                  std::size_t n, const Src& src, double* dr, double* di) {
    const std::size_t s = a.stride;
    for (std::size_t pb = 0; pb < b.m; ++pb) {
        lane_loop<L>(s, [&]<class V>(std::size_t q) {
            Cx<V> y[16];
            radix16_group<V>(a, b, tw, n / 4, src, pb, q, y);
            for (std::size_t t = 0; t < 16; ++t)
                store_cx<V>(dr, di, 16 * s * pb + q + s * t, y[t]);
        });
    }
}

/// The last dense radix-4 stage and the radix-2 fixup in one pass
/// (radix8_group).
template <class L, class Src>
void radix8_pass(const FftStage& a, const double* tw, std::size_t n,
                 const Src& src, double* dr, double* di) {
    const std::size_t s = a.stride;
    lane_loop<L>(s, [&]<class V>(std::size_t q) {
        Cx<V> y[8];
        radix8_group<V>(a, tw, n / 4, src, q, y);
        for (std::size_t t = 0; t < 8; ++t) store_cx<V>(dr, di, q + s * t, y[t]);
    });
}

/// The radix-2 fixup alone over a live prefix [0, live): sub_n = 2, one
/// butterfly per q, twiddle 1; where b is structurally zero both outputs
/// are a.
template <class L, class Src>
void radix2_pass(std::size_t n, std::size_t live, const Src& src, double* dr,
                 double* di) {
    const std::size_t h = n / 2;
    const std::size_t t0 = std::min(live, h);
    const std::size_t t1 = live > h ? live - h : 0;
    lane_loop<L>(t1, [&]<class V>(std::size_t q) {
        const Cx<V> a = src.template load<V>(q), b = src.template load<V>(q + h);
        store_cx<V>(dr, di, q, {V::add(a.r, b.r), V::add(a.i, b.i)});
        store_cx<V>(dr, di, q + h, {V::sub(a.r, b.r), V::sub(a.i, b.i)});
    });
    using S = simd::Scalar<double>;
    for (std::size_t q = t1; q < t0; ++q) {
        const Cx<S> a = src.template load<S>(q);
        store_cx<S>(dr, di, q, a);
        store_cx<S>(dr, di, q + h, a);
    }
}

// --------------------------------------------------- single transform

/// Run one pass reading `src` and writing (dr, di).
template <class L, class Src>
void run_pass(const Pow2Kernel& plan, const FftPass& pass, const Src& src,
              double* dr, double* di) {
    const std::size_t n = plan.size();
    const auto& stages = plan.plan_stages();
    const FftStage& st = stages[pass.stage];
    const double* tw = plan.twiddles().data();
    switch (pass.kind) {
        case PassKind::kStride1Radix16:
            stride1_radix16_pass<L>(st, stages[pass.stage + 1], tw, n, pass.live,
                                    src, dr, di);
            break;
        case PassKind::kRadix4:
            radix4_pass<L>(st, tw, n, pass.live, src, dr, di);
            break;
        case PassKind::kRadix16:
            radix16_pass<L>(st, stages[pass.stage + 1], tw, n, src, dr, di);
            break;
        case PassKind::kRadix8:
            radix8_pass<L>(st, tw, n, src, dr, di);
            break;
        case PassKind::kRadix2:
            radix2_pass<L>(n, pass.live, src, dr, di);
            break;
    }
}

/// Forward transform of the data in (xr, xi), result in (xr, xi). Passes
/// ping-pong between the data and work planes; with an odd pass count the
/// last one runs in place, so the result lands in (xr, xi) without a copy:
/// a final pass writes back exactly the index set each of its groups
/// reads, and loads it all first.
template <class L>
void run_forward_t(const Pow2Kernel& plan, double* xr, double* xi, double* wr,
                   double* wi) {
    const auto& passes = plan.plan_passes();
    double* planes[2][2] = {{xr, xi}, {wr, wi}};
    for (std::size_t i = 0; i < passes.size(); ++i) {
        double* const* from = planes[i % 2];
        double* const* to = i + 1 == passes.size() && passes.size() % 2 == 1
                                ? from
                                : planes[(i + 1) % 2];
        run_pass<L>(plan, passes[i], Planes{from[0], from[1]}, to[0], to[1]);
    }
}

// ------------------------------------------------ real-input transform

/// One untangle step (fft_kernels.hpp): from a = Z_k, b = Z_{h-k} and
/// w = w^k, X_k into xk and X_{h-k} into xm.
template <class V>
WITRACK_KERNEL_INLINE void untangle_step(const Cx<V>& a, const Cx<V>& b, const Cx<V>& w,
                                         Cx<V>& xk, Cx<V>& xm) {
    const auto half = V::set1(0.5);
    const auto er = V::mul(half, V::add(a.r, b.r));
    const auto ei = V::mul(half, V::sub(a.i, b.i));
    const auto odr = V::mul(half, V::add(a.i, b.i));
    const auto odi = V::mul(half, V::sub(b.r, a.r));
    const auto tr = V::sub(V::mul(w.r, odr), V::mul(w.i, odi));
    const auto ti = V::add(V::mul(w.r, odi), V::mul(w.i, odr));
    xk = {V::add(er, tr), V::add(ei, ti)};
    xm = {V::sub(er, tr), V::sub(ti, ei)};
}

template <class V>
WITRACK_KERNEL_INLINE Cx<V> reversed(const Cx<V>& v) {
    return {V::reverse(v.r), V::reverse(v.i)};
}

/// The untangle of Z in (zr, zi) into (ore, oim) over steps k = 1 .. with
/// 2k < h, plus bins 0, h/2 and h. Lanes take k ascending, so the mirrored
/// bins h - k are loaded and stored through reverse.
template <class L>
void untangle_t(const double* zr, const double* zi, std::size_t h,
                const double* twr, const double* twi, double* ore, double* oim) {
    const double zr0 = zr[0], zi0 = zi[0];
    ore[0] = zr0 + zi0;
    oim[0] = 0.0;
    ore[h] = zr0 - zi0;
    oim[h] = 0.0;
    lane_loop<L>((h - 1) / 2, [&]<class V>(std::size_t i) {
        const std::size_t k = 1 + i;
        const std::size_t mk = h - k - (V::width - 1);  // lowest mirrored bin
        Cx<V> xk, xm;
        untangle_step<V>(load_cx<V>(zr, zi, k), reversed(load_cx<V>(zr, zi, mk)),
                         load_cx<V>(twr, twi, k), xk, xm);
        store_cx<V>(ore, oim, k, xk);
        store_cx<V>(ore, oim, mk, reversed(xm));
    });
    if (h % 2 == 0 && h >= 2) {  // middle bin: X_{h/2} = conj(Z_{h/2}) exactly
        ore[h / 2] = zr[h / 2];
        oim[h / 2] = -zi[h / 2];
    }
}

/// The last pass of a real transform's h-point plan, fused with the
/// untangle. Group q of the last pass (radix T, stride s = h/T) holds Z at
/// q + s*t, and group s - q holds Z at h - (q + s*t) = (s - q) + s*(T-1-t),
/// so a chunk of groups and its mirror chunk untangle straight from
/// registers and Z is never stored. `group` is invoked as
/// group.template operator()<V>(q, y). Group 0 and the few middle groups
/// the chunks leave unpaired go through (zr, zi) and untangle_t's steps.
template <class L, std::size_t T, class Group>
void untangle_last_pass(std::size_t s, Group&& group, const double* twr,
                        const double* twi, double* ore, double* oim, double* zr,
                        double* zi) {
    constexpr std::size_t w = L::width;
    const std::size_t h = T * s;
    std::size_t q0 = 1;
    for (; 2 * q0 + 2 * w - 2 < s; q0 += w) {
        const std::size_t qm = s - q0 - (w - 1);  // mirror chunk, lanes reversed
        Cx<L> a[T], b[T];
        group.template operator()<L>(q0, a);
        group.template operator()<L>(qm, b);
        for (std::size_t t = 0; t < T; ++t) b[t] = reversed(b[t]);
        for (std::size_t t = 0; t < T / 2; ++t) {
            Cx<L> xk, xm;
            // k = q + s*t ascending in the chunk, mirrored in chunk qm.
            untangle_step<L>(a[t], b[T - 1 - t], load_cx<L>(twr, twi, q0 + s * t), xk, xm);
            store_cx<L>(ore, oim, q0 + s * t, xk);
            store_cx<L>(ore, oim, qm + s * (T - 1 - t), reversed(xm));
            // k = (s - q) + s*t, descending across the lanes.
            untangle_step<L>(b[t], a[T - 1 - t],
                             reversed(load_cx<L>(twr, twi, qm + s * t)), xk, xm);
            store_cx<L>(ore, oim, qm + s * t, reversed(xk));
            store_cx<L>(ore, oim, q0 + s * (T - 1 - t), xm);
        }
    }
    using S = simd::Scalar<double>;
    const auto spill = [&](std::size_t q) {
        Cx<S> y[T];
        group.template operator()<S>(q, y);
        for (std::size_t t = 0; t < T; ++t) store_cx<S>(zr, zi, q + s * t, y[t]);
    };
    const auto step = [&](std::size_t k) {
        Cx<S> xk, xm;
        untangle_step<S>(load_cx<S>(zr, zi, k), load_cx<S>(zr, zi, h - k),
                         load_cx<S>(twr, twi, k), xk, xm);
        store_cx<S>(ore, oim, k, xk);
        store_cx<S>(ore, oim, h - k, xm);
    };
    spill(0);
    for (std::size_t q = q0; q + q0 <= s; ++q) spill(q);
    const double zr0 = zr[0], zi0 = zi[0];
    ore[0] = zr0 + zi0;
    oim[0] = 0.0;
    ore[h] = zr0 - zi0;
    oim[h] = 0.0;
    for (std::size_t t = 1; t < T / 2; ++t) step(s * t);
    for (std::size_t q = q0; q + q0 <= s; ++q)
        for (std::size_t t = 0; t < T / 2; ++t) step(q + s * t);
    ore[h / 2] = zr[h / 2];  // middle bin: X_{h/2} = conj(Z_{h/2}) exactly
    oim[h / 2] = -zi[h / 2];
}

/// The r2c transform of fft_kernels.hpp's real_forward. An even sweep's
/// pack is fused into the first pass (Windowed); its passes ping-pong
/// between the planes, and a kRadix8 last pass untangles from registers.
/// Other last passes leave Z in (zr, zi) for untangle_t. An odd sweep,
/// whose last sample pairs with a zero, or a plan without passes packs
/// first.
template <class L>
void run_real_forward_t(const Pow2Kernel& plan, const double* x, const double* w,
                        std::size_t samples, const double* twr, const double* twi,
                        double* ore, double* oim, double* zr, double* zi,
                        double* wr, double* wi) {
    const auto& passes = plan.plan_passes();
    const std::size_t count = passes.size();
    const std::size_t n = plan.size();
    if (samples % 2 == 1 || count == 0) {
        lane_loop<L>(samples / 2, [&]<class V>(std::size_t k) {
            store_cx<V>(zr, zi, k, Windowed{x, w}.load<V>(k));
        });
        if (samples % 2 == 1) {
            zr[samples / 2] = x[samples - 1] * w[samples - 1];
            zi[samples / 2] = 0.0;
        }
        run_forward_t<L>(plan, zr, zi, wr, wi);
        untangle_t<L>(zr, zi, n, twr, twi, ore, oim);
        return;
    }
    // Pass i writes planes[(count - 1 - i) % 2], so the last pass writes
    // (zr, zi) -- or, fused with the untangle, reads (wr, wi) and spills
    // its unpaired groups to (zr, zi).
    double* planes[2][2] = {{zr, zi}, {wr, wi}};
    const auto run = [&](std::size_t i, const auto& src) {
        const FftPass& pass = passes[i];
        if (i + 1 == count && pass.kind == PassKind::kRadix8) {
            const FftStage& st = plan.plan_stages()[pass.stage];
            const double* tw = plan.twiddles().data();
            untangle_last_pass<L, 8>(
                st.stride,
                [&]<class V>(std::size_t q, Cx<V>* y) {
                    radix8_group<V>(st, tw, n / 4, src, q, y);
                },
                twr, twi, ore, oim, zr, zi);
            return true;
        }
        double* const* to = planes[(count - 1 - i) % 2];
        run_pass<L>(plan, pass, src, to[0], to[1]);
        return false;
    };
    bool untangled = run(0, Windowed{x, w});
    for (std::size_t i = 1; i < count; ++i) {
        double* const* prev = planes[(count - i) % 2];  // what pass i - 1 wrote
        untangled = run(i, Planes{prev[0], prev[1]});
    }
    if (!untangled) untangle_t<L>(zr, zi, n, twr, twi, ore, oim);
}

// ------------------------------------------------ per-level entry points
//
// Each translation unit defines its level's entry points (fft_kernels.cpp:
// scalar + the dispatch; fft_kernels_avx2.cpp: the vector level, falling
// back to scalar when the build target lacks AVX2 entirely).

void forward_scalar(const Pow2Kernel& plan, double* xr, double* xi, double* wr,
                    double* wi);
void forward_avx2(const Pow2Kernel& plan, double* xr, double* xi, double* wr,
                  double* wi);
void real_forward_scalar(const Pow2Kernel& half, const double* x, const double* w,
                         std::size_t samples, const double* twr,
                         const double* twi, double* ore, double* oim,
                         double* zr, double* zi, double* wr, double* wi);
void real_forward_avx2(const Pow2Kernel& half, const double* x, const double* w,
                       std::size_t samples, const double* twr, const double* twi,
                       double* ore, double* oim, double* zr, double* zi,
                       double* wr, double* wi);

#undef WITRACK_KERNEL_INLINE

}  // namespace witrack::dsp::kernels::detail
