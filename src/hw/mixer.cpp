#include "hw/mixer.hpp"

#include <cmath>
#include <stdexcept>

#include "hw/mixer_kernels_impl.hpp"

namespace witrack::hw {

namespace mixer_kernels {

// Scalar level: always available. The AVX2 entry point lives in its own
// translation unit; simd::active() never exceeds detect(), so it is only
// reached on hardware that supports it.
void detail::accumulate_scalar(const Tone* tones, std::size_t count,
                               const double* ripple, double* out, std::size_t n) {
    run_tones<dsp::simd::ScalarD>(tones, count, ripple, out, n);
}

void accumulate(const Tone* tones, std::size_t count, const double* ripple, double* out,
                std::size_t n) {
    switch (dsp::simd::active()) {
        case dsp::simd::Level::kAvx2:
            detail::accumulate_avx2(tones, count, ripple, out, n);
            return;
        case dsp::simd::Level::kScalar: break;
    }
    detail::accumulate_scalar(tones, count, ripple, out, n);
}

}  // namespace mixer_kernels

using witrack::rf::PropagationPath;

DechirpMixer::DechirpMixer(const witrack::FmcwParams& fmcw, SweepNonlinearity nonlinearity)
    : fmcw_(fmcw), nonlinearity_(nonlinearity) {
    fmcw_.validate();
    if (!nonlinearity_.negligible()) {
        const std::size_t n = fmcw_.samples_per_sweep();
        ripple_table_.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            const double t = static_cast<double>(i) / fmcw_.sample_rate_hz;
            ripple_table_[i] =
                std::sin(2.0 * M_PI * nonlinearity_.ripple_frequency_hz * t +
                         nonlinearity_.phase_rad);
        }
    }
}

void DechirpMixer::synthesize(std::span<const PropagationPath> paths,
                              std::span<double> out) const {
    using mixer_kernels::kBlock;
    const std::size_t n = fmcw_.samples_per_sweep();
    if (out.size() != n) throw std::invalid_argument("DechirpMixer: bad buffer size");

    const double slope = fmcw_.slope();
    const double fs = fmcw_.sample_rate_hz;
    const double* ripple = ripple_table_.empty() ? nullptr : ripple_table_.data();

    // Tones are prepared in small batches on the stack, so a sweep of any
    // path count synthesizes without touching the heap.
    constexpr std::size_t kBatch = 16;
    mixer_kernels::Tone batch[kBatch];
    std::size_t pending = 0;
    for (const auto& path : paths) {
        if (path.amplitude <= 0.0) continue;
        const double tau = path.round_trip_m / kSpeedOfLight;
        const double beat_hz = slope * tau;
        // Phase at t = 0: carrier-delay term minus the residual video phase.
        const double phi0 = 2.0 * M_PI * (fmcw_.start_frequency_hz * tau -
                                          0.5 * slope * tau * tau) +
                            path.phase_rad;
        const double dphi = 2.0 * M_PI * beat_hz / fs;

        // Seed the first block by a short serial recurrence; the block step
        // rotation^kBlock is evaluated directly so it carries no
        // accumulated rounding.
        mixer_kernels::Tone& tone = batch[pending++];
        const double rot_re = std::cos(dphi), rot_im = std::sin(dphi);
        tone.re[0] = std::cos(phi0);
        tone.im[0] = std::sin(phi0);
        for (std::size_t k = 1; k < kBlock; ++k) {
            tone.re[k] = tone.re[k - 1] * rot_re - tone.im[k - 1] * rot_im;
            tone.im[k] = tone.re[k - 1] * rot_im + tone.im[k - 1] * rot_re;
        }
        tone.step_re = std::cos(static_cast<double>(kBlock) * dphi);
        tone.step_im = std::sin(static_cast<double>(kBlock) * dphi);
        tone.amp = path.amplitude;
        // delta(t) = 2*pi*A_r*tau*ripple(t); |delta| << 1 for realistic PLL
        // residuals, so the first-order expansion is exact enough.
        tone.delta_scale = 2.0 * M_PI * nonlinearity_.ripple_amplitude_hz * tau;
        if (pending == kBatch) {
            mixer_kernels::accumulate(batch, pending, ripple, out.data(), n);
            pending = 0;
        }
    }
    if (pending > 0) mixer_kernels::accumulate(batch, pending, ripple, out.data(), n);
}

std::vector<double> DechirpMixer::synthesize(
    std::span<const PropagationPath> paths) const {
    std::vector<double> out(fmcw_.samples_per_sweep(), 0.0);
    synthesize(paths, out);
    return out;
}

}  // namespace witrack::hw
