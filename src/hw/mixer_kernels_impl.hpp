// Lane-templated beat-tone kernel behind hw::DechirpMixer::synthesize, shared
// by every SIMD dispatch level. Same discipline as dsp/fft_kernels_impl.hpp:
// one template over the dsp/simd.hpp lane vocabulary, instantiated by the
// per-ISA translation units (mixer.cpp for the scalar level and dispatch,
// mixer_avx2.cpp), each built with -ffp-contract=off.
//
// A tone is advanced as a blocked phasor recurrence: the phasors of kBlock
// consecutive samples sit side by side, and one complex multiply by
// rotation^kBlock moves the whole block forward. Every phasor evolves
// independently with per-element mul/add/sub (and, at each renormalization,
// correctly rounded sqrt and div), and each output sample accumulates its
// tones in path order. The logical layout is kBlock phasors whatever the
// register width -- scalar runs eight width-1 chains, AVX2 two four-wide --
// so both levels are bit-identical.
#pragma once

#include <cstddef>

#include "dsp/simd.hpp"

namespace witrack::hw::mixer_kernels {

/// Samples per recurrence block.
inline constexpr std::size_t kBlock = 8;

/// Phasors are renormalized to unit magnitude every kRenormEvery samples
/// (a multiple of kBlock) so rounding cannot make the tone drift in
/// amplitude over a sweep.
inline constexpr std::size_t kRenormEvery = 512;

/// One propagation path's beat tone, prepared for the blocked recurrence.
struct Tone {
    double re[kBlock];   ///< cos of the beat phase at samples 0..kBlock-1
    double im[kBlock];   ///< sin of the beat phase at samples 0..kBlock-1
    double step_re;      ///< cos(kBlock * dphi)
    double step_im;      ///< sin(kBlock * dphi)
    double amp;          ///< path amplitude
    double delta_scale;  ///< ripple phase per unit ripple (ripple only)
};

/// For each tone in order, out[i] += amp * cos(phi_i) for i in [0, n) or,
/// with a ripple table, out[i] += amp * (cos(phi_i) - delta_scale *
/// ripple[i] * sin(phi_i)).
void accumulate(const Tone* tones, std::size_t count, const double* ripple,
                double* out, std::size_t n);

namespace detail {

void accumulate_scalar(const Tone* tones, std::size_t count, const double* ripple,
                       double* out, std::size_t n);
void accumulate_avx2(const Tone* tones, std::size_t count, const double* ripple,
                     double* out, std::size_t n);

/// K tones advanced side by side. Interleaving two independent recurrences
/// hides the multiply-add latency of each; every output sample still adds
/// its tones one at a time in order, so K does not change a single bit.
template <class L, std::size_t K, bool kRipple>
void run_tones_t(const Tone* tones, const double* ripple, double* out, std::size_t n) {
    using reg = typename L::reg;
    constexpr std::size_t W = L::width;
    constexpr std::size_t R = kBlock / W;
    static_assert(kBlock % W == 0 && kRenormEvery % kBlock == 0);

    reg re[K][R], im[K][R];
    reg step_re[K], step_im[K], amp[K], delta_scale[K];
    for (std::size_t t = 0; t < K; ++t) {
        for (std::size_t r = 0; r < R; ++r) {
            re[t][r] = L::load(tones[t].re + r * W);
            im[t][r] = L::load(tones[t].im + r * W);
        }
        step_re[t] = L::set1(tones[t].step_re);
        step_im[t] = L::set1(tones[t].step_im);
        amp[t] = L::set1(tones[t].amp);
        delta_scale[t] = L::set1(tones[t].delta_scale);
    }

    std::size_t base = 0;
    for (; base + kBlock <= n; base += kBlock) {
        for (std::size_t r = 0; r < R; ++r) {
            double* o = out + base + r * W;
            reg acc = L::load(o);
            for (std::size_t t = 0; t < K; ++t) {
                reg value = re[t][r];
                if constexpr (kRipple) {
                    // cos(theta + delta) ~ cos(theta) - delta * sin(theta)
                    const reg delta =
                        L::mul(delta_scale[t], L::load(ripple + base + r * W));
                    value = L::sub(re[t][r], L::mul(delta, im[t][r]));
                }
                acc = L::add(acc, L::mul(amp[t], value));
            }
            L::store(o, acc);
        }
        for (std::size_t t = 0; t < K; ++t) {
            for (std::size_t r = 0; r < R; ++r) {
                const reg next_re = L::sub(L::mul(re[t][r], step_re[t]),
                                           L::mul(im[t][r], step_im[t]));
                const reg next_im = L::add(L::mul(re[t][r], step_im[t]),
                                           L::mul(im[t][r], step_re[t]));
                re[t][r] = next_re;
                im[t][r] = next_im;
            }
        }
        if ((base + kBlock) % kRenormEvery == 0) {
            for (std::size_t t = 0; t < K; ++t) {
                for (std::size_t r = 0; r < R; ++r) {
                    const reg mag = L::sqrt(L::add(L::mul(re[t][r], re[t][r]),
                                                   L::mul(im[t][r], im[t][r])));
                    re[t][r] = L::div(re[t][r], mag);
                    im[t][r] = L::div(im[t][r], mag);
                }
            }
        }
    }
    if (base == n) return;

    // Partial last block: the chains already hold its phasors.
    for (std::size_t t = 0; t < K; ++t) {
        double tail_re[kBlock], tail_im[kBlock];
        for (std::size_t r = 0; r < R; ++r) {
            L::store(tail_re + r * W, re[t][r]);
            L::store(tail_im + r * W, im[t][r]);
        }
        for (std::size_t k = 0; base + k < n; ++k) {
            double value = tail_re[k];
            if constexpr (kRipple)
                value = tail_re[k] - (tones[t].delta_scale * ripple[base + k]) * tail_im[k];
            out[base + k] += tones[t].amp * value;
        }
    }
}

template <class L, bool kRipple>
void run_all_t(const Tone* tones, std::size_t count, const double* ripple,
               double* out, std::size_t n) {
    std::size_t t = 0;
    for (; t + 2 <= count; t += 2) run_tones_t<L, 2, kRipple>(tones + t, ripple, out, n);
    if (t < count) run_tones_t<L, 1, kRipple>(tones + t, ripple, out, n);
}

template <class L>
void run_tones(const Tone* tones, std::size_t count, const double* ripple,
               double* out, std::size_t n) {
    if (ripple != nullptr)
        run_all_t<L, true>(tones, count, ripple, out, n);
    else
        run_all_t<L, false>(tones, count, ripple, out, n);
}

}  // namespace detail
}  // namespace witrack::hw::mixer_kernels
