#include "dsp/fft_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft_kernels_impl.hpp"
#include "dsp/simd.hpp"

namespace witrack::dsp::kernels {

// The transform is an iterative Stockham autosort: every stage reads the
// quartet {base, base + n/4, base + n/2, base + 3n/4} (base = s*p + q) from
// the source plane and writes the contiguous group {4sp + q + k*s} to the
// destination plane, ping-ponging between the data and work planes. There
// is no bit-reversal permutation, every inner q-loop walks contiguous
// memory, and the twiddle factor depends only on p -- exactly the shape
// the lane templates in fft_kernels_impl.hpp vectorize explicitly.
//
// Pruning bookkeeping: a nonzero input prefix [0, nzb) stays a *contiguous*
// prefix under this stage ordering. With thresholds t_k = clamp(nzb - k*n/4,
// 0, n/4), operand k of the butterfly at base is structurally zero iff
// base >= t_k, so each stage splits its p-range into four branch-free
// regions (4, 3, 2, 1 live operands) plus a skipped all-zero tail, and the
// prefix bound propagates as nzb' = 4s * ceil(t_0 / s). Because every
// stage's stride divides the next stage's bound, the region boundaries
// always fall on whole p values, and a skipped (unwritten) destination
// range is never read back. The final stage always satisfies nzb >= s, so
// its t_0 covers the whole p-range and the output is fully materialized.
//
// Passes: the stages are grouped into passes over memory at plan time
// (fft_kernels_impl.hpp runs them). The stride-1 first stage fuses with the
// stride-4 stage whenever its output is dense (live prefix >= n/4; its own
// input may be pruned). After it, a stage whose input is dense (live
// prefix n) fuses with the next one -- a radix-4 pair into radix-16, the
// last radix-4 stage and the radix-2 fixup into radix-8 -- and a stage that
// still has structural zeros in its input runs alone with its pruning
// regions (a lone stride-1 stage runs along its stride, in the scalar
// tail). The range pipeline's 2048-point half transform (1250 live
// inputs) runs its 6 stages in 3 passes: stride-1 + stride-4 (pruned),
// radix-16, and radix-8, which also untangles the half spectrum
// (real_forward).

namespace {

/// Live output prefix of one stage, given its live input prefix.
std::size_t stage_output_live(const FftStage& st, std::size_t n, std::size_t live) {
    if (st.radix == 2) return std::min(live, n / 2) > 0 ? n : 0;
    return 4 * st.stride * detail::ceil_div(std::min(live, n / 4), st.stride);
}

}  // namespace

Pow2Kernel::Pow2Kernel(std::size_t n, std::size_t n_nonzero) : n_(n) {
    if (!is_power_of_two(n_))
        throw std::invalid_argument("Pow2Kernel: size must be a power of two");
    nz_ = (n_nonzero == 0 || n_nonzero > n_) ? n_ : n_nonzero;

    // Plan the stage sequence: radix-4 all the way down, with a radix-2
    // fixup as the last stage when log2(n) is odd.
    std::size_t sub = n_;
    std::size_t stride = 1;
    while (sub >= 4) {
        const std::size_t m = sub / 4;
        stages_.push_back({4, stride, m, tw_.size()});
        tw_.resize(tw_.size() + 6 * m);
        double* w1r = tw_.data() + stages_.back().tw_offset;
        double* w1i = w1r + m;
        double* w2r = w1i + m;
        double* w2i = w2r + m;
        double* w3r = w2i + m;
        double* w3i = w3r + m;
        const double theta = -2.0 * M_PI / static_cast<double>(sub);
        for (std::size_t p = 0; p < m; ++p) {
            const double a = theta * static_cast<double>(p);
            w1r[p] = std::cos(a);
            w1i[p] = std::sin(a);
            w2r[p] = std::cos(2.0 * a);
            w2i[p] = std::sin(2.0 * a);
            w3r[p] = std::cos(3.0 * a);
            w3i[p] = std::sin(3.0 * a);
        }
        sub /= 4;
        stride *= 4;
    }
    if (sub == 2) stages_.push_back({2, n_ / 2, 1, tw_.size()});

    std::size_t live = nz_;
    for (std::size_t i = 0; i < stages_.size();) {
        const FftStage& st = stages_[i];
        const bool next4 = i + 1 < stages_.size() && stages_[i + 1].radix == 4;
        PassKind kind = PassKind::kRadix4;
        if (st.radix == 2)
            kind = PassKind::kRadix2;
        else if (st.stride == 1 && next4 && live >= n_ / 4)
            kind = PassKind::kStride1Radix16;
        else if (st.stride > 1 && live == n_ && i + 1 < stages_.size())
            kind = next4 ? PassKind::kRadix16 : PassKind::kRadix8;
        passes_.push_back({kind, i, live});
        const bool pair = kind == PassKind::kStride1Radix16 ||
                          kind == PassKind::kRadix16 || kind == PassKind::kRadix8;
        for (const std::size_t end = i + (pair ? 2 : 1); i < end; ++i)
            live = stage_output_live(stages_[i], n_, live);
    }
}

namespace detail {

// Scalar level: always available, and the tail lane of every vector loop.

void forward_scalar(const Pow2Kernel& plan, double* xr, double* xi, double* wr,
                    double* wi) {
    run_forward_t<simd::ScalarD>(plan, xr, xi, wr, wi);
}

void real_forward_scalar(const Pow2Kernel& half, const double* x, const double* w,
                         std::size_t samples, const double* twr,
                         const double* twi, double* ore, double* oim,
                         double* zr, double* zi, double* wr, double* wi) {
    run_real_forward_t<simd::ScalarD>(half, x, w, samples, twr, twi, ore, oim, zr,
                                      zi, wr, wi);
}

}  // namespace detail

// Runtime dispatch. simd::active() never exceeds simd::detect(), so the
// avx2 entry point is only reached on hardware that supports it (its
// translation unit forwards to the scalar level when the *build* lacks
// AVX2 entirely, e.g. a non-x86 target).
void Pow2Kernel::forward(double* xr, double* xi, double* wr, double* wi) const {
    if (simd::active() == simd::Level::kAvx2)
        detail::forward_avx2(*this, xr, xi, wr, wi);
    else
        detail::forward_scalar(*this, xr, xi, wr, wi);
}

void real_forward(const Pow2Kernel& half, const double* x, const double* w,
                  std::size_t samples, const double* twr, const double* twi,
                  double* ore, double* oim, double* zr, double* zi, double* wr,
                  double* wi) {
    if (simd::active() == simd::Level::kAvx2)
        detail::real_forward_avx2(half, x, w, samples, twr, twi, ore, oim, zr, zi,
                                  wr, wi);
    else
        detail::real_forward_scalar(half, x, w, samples, twr, twi, ore, oim, zr,
                                    zi, wr, wi);
}

}  // namespace witrack::dsp::kernels
