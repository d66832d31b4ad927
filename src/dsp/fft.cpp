#include "dsp/fft.hpp"

#include <cmath>
#include <stdexcept>

namespace witrack::dsp {

namespace {

std::size_t next_power_of_two(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

std::size_t checked_samples(std::size_t samples) {
    if (samples < 2) throw std::invalid_argument("RealFft: need >= 2 samples");
    return samples;
}

/// Grow-only plane sizing: capacity is kept warm across calls.
inline void ensure_plane(std::vector<double>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
}

/// Untangle the even/odd sub-spectra (E_k, O_k) of one packed half-length
/// transform Z and recombine into the non-redundant half X_0..X_h:
///   X_k = E_k + w^k O_k,  with  E_k = (Z_k + conj(Z_{h-k}))/2,
///   O_k = -i/2 (Z_k - conj(Z_{h-k})),  w = exp(-2*pi*i/N).
/// Each loop iteration emits the pair (X_k, X_{h-k} = conj(E_k - w^k O_k)),
/// so the untangle does h/2 iterations instead of the h a full-spectrum
/// recombination needs.
void untangle_half_spectrum(const double* zr, const double* zi, std::size_t h,
                            const double* wr, const double* wi, double* ore,
                            double* oim) {
    const double zr0 = zr[0], zi0 = zi[0];
    ore[0] = zr0 + zi0;
    oim[0] = 0.0;
    ore[h] = zr0 - zi0;
    oim[h] = 0.0;
    for (std::size_t k = 1; 2 * k < h; ++k) {
        const double ar = zr[k], ai = zi[k];
        const double br = zr[h - k], bi = zi[h - k];
        const double er = 0.5 * (ar + br);
        const double ei = 0.5 * (ai - bi);
        const double odr = 0.5 * (ai + bi);
        const double odi = 0.5 * (br - ar);
        const double tr = wr[k] * odr - wi[k] * odi;
        const double ti = wr[k] * odi + wi[k] * odr;
        ore[k] = er + tr;
        oim[k] = ei + ti;
        ore[h - k] = er - tr;
        oim[h - k] = ti - ei;
    }
    if (h % 2 == 0 && h >= 2) {  // middle bin: X_{h/2} = conj(Z_{h/2}) exactly
        ore[h / 2] = zr[h / 2];
        oim[h / 2] = -zi[h / 2];
    }
}

}  // namespace

RealFft::RealFft(std::size_t samples)
    : n_(next_power_of_two(checked_samples(samples))),
      nz_(samples),
      packed_nz_((samples + 1) / 2),
      half_(n_ / 2, packed_nz_) {
    const std::size_t quarter = n_ / 4;
    twr_.resize(quarter + 1);
    twi_.resize(quarter + 1);
    for (std::size_t k = 0; k <= quarter; ++k) {
        const double angle = -2.0 * M_PI * static_cast<double>(k) / static_cast<double>(n_);
        twr_[k] = std::cos(angle);
        twi_[k] = std::sin(angle);
    }
}

void RealFft::forward(std::span<const double> input,
                      std::span<const double> window,
                      std::vector<double>& out_re, std::vector<double>& out_im,
                      FftScratch& scratch) const {
    if (input.size() != nz_)
        throw std::invalid_argument("RealFft::forward: size mismatch");
    if (window.size() != nz_)
        throw std::invalid_argument("RealFft::forward: window mismatch");

    // Pack adjacent real samples into one half-length complex sequence,
    // z_n = x_{2n} + i*x_{2n+1}, applying the window on the fly (this is
    // the fused windowing pass: no separate sweep over the samples). The
    // pruned half plan treats [packed_nz_, h) as structural zero and never
    // reads it.
    const std::size_t h = n_ / 2;
    ensure_plane(scratch.zre, h);
    ensure_plane(scratch.zim, h);
    ensure_plane(scratch.wre, h);
    ensure_plane(scratch.wim, h);
    double* zr = scratch.zre.data();
    double* zi = scratch.zim.data();
    const std::size_t pairs = nz_ / 2;
    for (std::size_t k = 0; k < pairs; ++k) {
        zr[k] = input[2 * k] * window[2 * k];
        zi[k] = input[2 * k + 1] * window[2 * k + 1];
    }
    if (nz_ % 2 == 1) {
        zr[packed_nz_ - 1] = input[nz_ - 1] * window[nz_ - 1];
        zi[packed_nz_ - 1] = 0.0;
    }
    half_.forward(zr, zi, scratch.wre.data(), scratch.wim.data());

    out_re.resize(h + 1);
    out_im.resize(h + 1);
    untangle_half_spectrum(zr, zi, h, twr_.data(), twi_.data(), out_re.data(),
                           out_im.data());
}

}  // namespace witrack::dsp
