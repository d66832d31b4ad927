// The range transform (paper Section 7: "The signal from each receiving
// antenna is transformed to the frequency domain using an FFT whose size
// matches the FMCW sweep period").
//
// The sweep period (2.5 ms at 1 MS/s) gives 2500 samples. RealFft zero-pads
// them to the next power of two (4096): the same C/2B resolution (Eq. 3) on
// a finer bin grid, computed by one packed half-length transform on the
// radix-4 kernel in fft_kernels.hpp. The plan is pruned to the sweep
// length: the padded tail never exists in memory, and the kernel skips the
// butterflies that only touch it.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "dsp/fft_kernels.hpp"

namespace witrack::dsp {

using cplx = std::complex<double>;

/// Caller-owned scratch space for allocation-free transforms: the four
/// half-length re/im work planes of the structure-of-arrays kernel, in one
/// block. The block grows on first use and is reused afterwards, so a
/// long-lived scratch makes every subsequent transform
/// heap-allocation-free. One scratch must not be shared between threads.
struct FftScratch {
    std::vector<double> planes;
};

/// Real-input DFT plan for one sweep length with a true r2c half-spectrum
/// contract. The transform size N is the next power of two >= the sweep
/// length; forward() emits the N/2 + 1 non-redundant bins X_0 .. X_{N/2}
/// (the upper half is their conjugate mirror and is never materialized).
/// It runs through one N/2-point complex FFT (even samples in the real
/// plane, odd samples in the imaginary plane) plus an O(N/4) paired
/// untangling stage, which kernels::real_forward fuses into the FFT's
/// first and last passes. Immutable after construction; all per-call storage is
/// in the caller's FftScratch, so steady-state transforms are
/// allocation-free.
class RealFft {
  public:
    /// Plan for sweeps of `samples` (>= 2) real samples; the input tail
    /// [samples, size()) is structurally zero.
    explicit RealFft(std::size_t samples);

    /// Transform size N (a power of two).
    std::size_t size() const { return n_; }
    /// Number of input samples forward() consumes (the sweep length).
    std::size_t n_nonzero() const { return nz_; }
    /// Bins forward() emits: size()/2 + 1 (DC through Nyquist inclusive).
    std::size_t spectrum_size() const { return n_ / 2 + 1; }

    /// Half spectrum of input[i] * window[i] (both n_nonzero() long, the
    /// window applied during the r2c packing pass) into separate re/im
    /// planes, each resized to spectrum_size() -- no allocation once
    /// capacity is warm. The SoA output lets downstream SIMD consumers
    /// (background subtraction, magnitude scans) stream the planes with
    /// unit stride.
    void forward(std::span<const double> input, std::span<const double> window,
                 std::vector<double>& out_re, std::vector<double>& out_im,
                 FftScratch& scratch) const;

  private:
    std::size_t n_ = 0;
    std::size_t nz_ = 0;         ///< input samples consumed
    std::size_t packed_nz_ = 0;  ///< nonzero half-length entries
    kernels::Pow2Kernel half_;   ///< N/2-point plan, pruned to packed_nz_
    std::vector<double> twr_, twi_;  ///< exp(-2*pi*i*k/N), k in [0, N/4]
};

}  // namespace witrack::dsp
