// Sweep-to-range transform (paper Section 7): coherently average the
// sweeps_per_frame sweeps of one frame in the time domain (human motion is
// negligible over 12.5 ms, so the body reflection adds coherently while
// noise adds incoherently), Hann-window, and FFT, zero-padded to the next
// power of two (4096 points for the 2500-sample sweep: the same C/2B
// resolution on a finer grid). One FFT bin of N points maps to a round-trip
// distance of C * (fs / N) / slope meters (Eq. 4).
//
// The hot path is fused: the first sweep assigns the (scaled) averaging
// buffer, later sweeps accumulate into it, and the window is applied during
// the r2c packing pass inside RealFft -- there is no zero-fill pass and no
// separate window pass, and the zero-padded tail of the transform never
// exists in memory (the pruned FFT plan knows it is structurally zero). A
// single-sweep frame (fast capture, or a replayed recording of one) is
// transformed straight from the caller's sweep, with no averaging copy.
//
// The processor owns its averaging buffer, its FFT plan and the FFT scratch
// space, so the steady-state `process_into` / `process_frame_into` paths do
// zero heap allocations per frame.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/constants.hpp"
#include "common/frame_buffer.hpp"
#include "dsp/fft.hpp"

namespace witrack::core {

/// Complex range spectrum of one averaged frame for one antenna. The
/// input sweep is real, so only the non-redundant half spectrum is
/// materialized: the planes hold usable_bins + 1 bins (DC through Nyquist
/// inclusive); the upper half would be their conjugate mirror and is never
/// computed. The spectrum is stored as structure-of-arrays re/im planes
/// (always equal length) so the FFT kernels and the background
/// subtraction stream each component with unit stride; bin k as a
/// complex value is `bin(k)`.
struct RangeProfile {
    std::vector<double> re;         ///< r2c half spectrum, real plane
    std::vector<double> im;         ///< r2c half spectrum, imaginary plane
    double bin_round_trip_m = 0.0;  ///< round-trip meters per FFT bin
    std::size_t usable_bins = 0;    ///< bins below Nyquist (FFT size/2)

    /// Bins materialized: usable_bins + 1 once transformed, 0 before.
    std::size_t spectrum_size() const { return re.size(); }
    dsp::cplx bin(std::size_t k) const { return dsp::cplx(re[k], im[k]); }

    double round_trip_of_bin(double bin) const { return bin * bin_round_trip_m; }
    double bin_of_round_trip(double m) const { return m / bin_round_trip_m; }
};

/// Not const-callable and not thread-safe: both entry points reuse the
/// owned averaging buffer and FFT scratch. Use one SweepProcessor per
/// thread (one per session); each owns its plan (~48 KB of twiddle tables
/// at the paper's sweep length).
class SweepProcessor {
  public:
    /// The FFT size is the next power of two >= fmcw.samples_per_sweep().
    explicit SweepProcessor(const FmcwParams& fmcw);

    /// Average and transform `sweep_count` back-to-back sweeps of
    /// samples_per_sweep() doubles (e.g. FrameBuffer::antenna), writing into
    /// `out` and reusing its storage -- no heap allocation at steady state.
    /// Accepts any sweep count >= 1 (the fast-capture path supplies an
    /// already-averaged single sweep).
    void process_into(std::span<const double> sweeps, std::size_t sweep_count,
                      RangeProfile& out);

    /// Batch the per-antenna range transforms of one frame in a single pass.
    /// `out` is resized to frame.num_rx(); profile storage is reused.
    void process_frame_into(const FrameBuffer& frame, std::vector<RangeProfile>& out);

    const FmcwParams& params() const { return fmcw_; }
    /// Round-trip meters per FFT bin and the bins below Nyquist, as every
    /// profile this processor writes carries them.
    double bin_round_trip_m() const { return bin_round_trip_m_; }
    std::size_t usable_bins() const { return rfft_.size() / 2; }

  private:
    /// FFT one (averaged) sweep into `out` (window fused into the
    /// transform's packing pass).
    void transform(std::span<const double> sweep, RangeProfile& out);

    /// The coherent average of `sweep_count` sweeps: the sweep itself when
    /// there is one, else averaged_ (fused scale-assign on the first sweep,
    /// accumulate on the rest).
    std::span<const double> average(std::span<const double> sweeps,
                                    std::size_t sweep_count);

    FmcwParams fmcw_;
    dsp::RealFft rfft_;             ///< pruned to the sweep length
    std::vector<double> window_;    ///< Hann, unity coherent gain
    std::vector<double> averaged_;  ///< samples_per_sweep doubles (no pad)
    double bin_round_trip_m_ = 0.0;
    dsp::FftScratch scratch_;
};

}  // namespace witrack::core
