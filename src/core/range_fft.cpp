#include "core/range_fft.hpp"

#include <stdexcept>

#include "dsp/window.hpp"

namespace witrack::core {

namespace {

std::size_t validated_sweep_length(const FmcwParams& fmcw) {
    fmcw.validate();
    return fmcw.samples_per_sweep();
}

}  // namespace

SweepProcessor::SweepProcessor(const FmcwParams& fmcw)
    : fmcw_(fmcw),
      rfft_(validated_sweep_length(fmcw)),
      window_(dsp::hann_window(rfft_.n_nonzero())) {
    // Normalize to unity coherent gain so thresholds are window-independent.
    const double gain = dsp::window_gain(window_) / static_cast<double>(window_.size());
    for (auto& w : window_) w /= gain;
    // Only the live sweep samples are buffered; the zero-padded tail up to
    // the FFT size is structural and lives inside the pruned FFT plan.
    averaged_.assign(rfft_.n_nonzero(), 0.0);
    // One FFT bin spans fs/Nfft in beat frequency; Eq. 4 maps that to
    // round-trip meters via C/slope.
    const double bin_hz = fmcw_.sample_rate_hz / static_cast<double>(rfft_.size());
    bin_round_trip_m_ = kSpeedOfLight * bin_hz / fmcw_.slope();
}

void SweepProcessor::transform(std::span<const double> sweep, RangeProfile& out) {
    rfft_.forward(sweep, window_, out.re, out.im, scratch_);
    out.bin_round_trip_m = bin_round_trip_m_;
    out.usable_bins = usable_bins();
}

std::span<const double> SweepProcessor::average(std::span<const double> sweeps,
                                                std::size_t sweep_count) {
    const std::size_t n = fmcw_.samples_per_sweep();
    if (sweep_count == 0) throw std::invalid_argument("SweepProcessor: no sweeps");
    if (sweeps.size() != sweep_count * n)
        throw std::invalid_argument("SweepProcessor: sweep length mismatch");
    // One sweep is its own average: x * 1.0 == x bit for bit, and a
    // signalling NaN is quieted by the window multiply either way.
    if (sweep_count == 1) return sweeps;

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
    return averaged_;
}

void SweepProcessor::process_into(std::span<const double> sweeps,
                                  std::size_t sweep_count, RangeProfile& out) {
    transform(average(sweeps, sweep_count), out);
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
