#include "core/range_fft.hpp"

#include <stdexcept>

namespace witrack::core {

namespace {

std::size_t checked_fft_size(const FmcwParams& fmcw, std::size_t fft_size) {
    fmcw.validate();
    const std::size_t n = fmcw.samples_per_sweep();
    const std::size_t resolved = fft_size == 0 ? n : fft_size;
    if (resolved < n)
        throw std::invalid_argument("SweepProcessor: fft_size below sweep length");
    return resolved;
}

}  // namespace

SweepProcessor::SweepProcessor(const FmcwParams& fmcw, dsp::WindowType window,
                               std::size_t fft_size, dsp::FftPlanCache* plans)
    : fmcw_(fmcw),
      fft_size_(checked_fft_size(fmcw, fft_size)),
      rfft_((plans != nullptr ? *plans : dsp::FftPlanCache::global())
                .real_plan(fft_size_, fmcw.samples_per_sweep())) {
    const std::size_t n = fmcw_.samples_per_sweep();
    window_ = dsp::make_window(window, n);
    // Normalize to unity coherent gain so thresholds are window-independent.
    const double gain = dsp::window_gain(window_) / static_cast<double>(window_.size());
    for (auto& w : window_) w /= gain;
    // Only the live sweep samples are buffered; the zero-padded tail up to
    // fft_size_ is structural and lives inside the pruned FFT plan.
    averaged_.assign(n, 0.0);
}

void SweepProcessor::transform(RangeProfile& out) {
    rfft_->forward_windowed_soa(averaged_, window_, out.re, out.im, scratch_);
    // One FFT bin spans fs/Nfft in beat frequency; Eq. 4 maps that to
    // round-trip meters via C/slope.
    const double bin_hz = fmcw_.sample_rate_hz / static_cast<double>(fft_size_);
    out.bin_round_trip_m = kSpeedOfLight * bin_hz / fmcw_.slope();
    out.usable_bins = fft_size_ / 2;
}

void SweepProcessor::average(std::span<const double> sweeps,
                             std::size_t sweep_count) {
    const std::size_t n = fmcw_.samples_per_sweep();
    if (sweep_count == 0) throw std::invalid_argument("SweepProcessor: no sweeps");
    if (sweeps.size() != sweep_count * n)
        throw std::invalid_argument("SweepProcessor: sweep length mismatch");

    // Fused averaging: the first sweep assigns (no zero-fill pass), the
    // rest accumulate. The window multiply happens inside the transform's
    // packing pass.
    const double scale = 1.0 / static_cast<double>(sweep_count);
    const double* first = sweeps.data();
    for (std::size_t i = 0; i < n; ++i) averaged_[i] = first[i] * scale;
    for (std::size_t s = 1; s < sweep_count; ++s) {
        const double* sweep = sweeps.data() + s * n;
        for (std::size_t i = 0; i < n; ++i) averaged_[i] += sweep[i] * scale;
    }
}

void SweepProcessor::process_into(std::span<const double> sweeps,
                                  std::size_t sweep_count, RangeProfile& out) {
    average(sweeps, sweep_count);
    transform(out);
}

void SweepProcessor::process_frame_into(const FrameBuffer& frame,
                                        std::vector<RangeProfile>& out) {
    if (frame.num_rx() == 0 || frame.num_sweeps() == 0)
        throw std::invalid_argument("SweepProcessor: no sweeps");
    out.resize(frame.num_rx());
    for (std::size_t rx = 0; rx < frame.num_rx(); ++rx)
        process_into(frame.antenna(rx), frame.num_sweeps(), out[rx]);
}

}  // namespace witrack::core
