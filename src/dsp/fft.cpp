#include "dsp/fft.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/fft_plan_cache.hpp"

namespace witrack::dsp {

namespace {

std::size_t next_power_of_two(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

/// Grow-only plane sizing: capacity is kept warm across mixed-size calls.
inline void ensure_plane(std::vector<double>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
}

/// Untangle the even/odd sub-spectra (E_k, O_k) of one packed half-length
/// transform Z and recombine into the non-redundant half X_0..X_h:
///   X_k = E_k + w^k O_k,  with  E_k = (Z_k + conj(Z_{h-k}))/2,
///   O_k = -i/2 (Z_k - conj(Z_{h-k})),  w = exp(-2*pi*i/N).
/// Each loop iteration emits the pair (X_k, X_{h-k} = conj(E_k - w^k O_k)),
/// so the untangle does h/2 iterations instead of the h a full-spectrum
/// recombination needs. The output is written through (ore, oim, ostride):
/// an interleaved std::complex array (ore = base, oim = base + 1, ostride 2
/// -- std::complex<double> is layout-guaranteed double[2]) or separate SoA
/// planes (ostride 1), with identical arithmetic either way.
void untangle_half_spectrum(const double* zr, const double* zi, std::size_t h,
                            const double* wr, const double* wi, double* ore,
                            double* oim, std::size_t ostride) {
    const double zr0 = zr[0], zi0 = zi[0];
    ore[0] = zr0 + zi0;
    oim[0] = 0.0;
    ore[h * ostride] = zr0 - zi0;
    oim[h * ostride] = 0.0;
    for (std::size_t k = 1; 2 * k < h; ++k) {
        const double ar = zr[k], ai = zi[k];
        const double br = zr[h - k], bi = zi[h - k];
        const double er = 0.5 * (ar + br);
        const double ei = 0.5 * (ai - bi);
        const double odr = 0.5 * (ai + bi);
        const double odi = 0.5 * (br - ar);
        const double tr = wr[k] * odr - wi[k] * odi;
        const double ti = wr[k] * odi + wi[k] * odr;
        ore[k * ostride] = er + tr;
        oim[k * ostride] = ei + ti;
        ore[(h - k) * ostride] = er - tr;
        oim[(h - k) * ostride] = ti - ei;
    }
    if (h % 2 == 0 && h >= 2) {  // middle bin: X_{h/2} = conj(Z_{h/2}) exactly
        const double mr = zr[h / 2], mi = zi[h / 2];
        ore[(h / 2) * ostride] = mr;
        oim[(h / 2) * ostride] = -mi;
    }
}

/// Resolved output location of one transform: interleaved complex or SoA.
struct SpectrumOut {
    double* re;
    double* im;
    std::size_t stride;
};

/// Size (or reuse) the output storage and return where to write.
/// std::complex<double> is layout-compatible with double[2], so the
/// interleaved view writes through the complex vector directly.
inline SpectrumOut spectrum_out(std::vector<cplx>& out, std::size_t bins) {
    out.resize(bins);
    double* base = reinterpret_cast<double*>(out.data());
    return {base, base + 1, 2};
}

inline SpectrumOut spectrum_out(std::vector<double>& out_re,
                                std::vector<double>& out_im, std::size_t bins) {
    out_re.resize(bins);
    out_im.resize(bins);
    return {out_re.data(), out_im.data(), 1};
}

}  // namespace

Fft::Fft(std::size_t n, std::size_t n_nonzero)
    : n_(n), pow2_(is_power_of_two(n)) {
    if (n_ == 0) throw std::invalid_argument("Fft: size must be positive");

    if (pow2_) {
        kernel_ = std::make_unique<kernels::Pow2Kernel>(
            n_, effective_nonzero(n_, n_nonzero));
        return;
    }

    // Bluestein setup. The chirp uses k^2 mod 2n in the exponent to avoid
    // catastrophic precision loss for large k (pi*k^2/n wraps every 2n).
    m_ = next_power_of_two(2 * n_ - 1);
    chirp_re_.resize(n_);
    chirp_im_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
        const std::size_t k2 = (k * k) % (2 * n_);
        const double angle = M_PI * static_cast<double>(k2) / static_cast<double>(n_);
        chirp_re_[k] = std::cos(angle);
        chirp_im_[k] = std::sin(angle);
    }
    // The data-side convolution input is nonzero only in its first n_
    // entries of m_, so its forward transform is planned pruned; the
    // spectrum-side inverse is dense.
    conv_kernel_ = std::make_unique<kernels::Pow2Kernel>(m_, n_);
    chirp_spec_re_.assign(m_, 0.0);
    chirp_spec_im_.assign(m_, 0.0);
    chirp_spec_re_[0] = chirp_re_[0];
    chirp_spec_im_[0] = chirp_im_[0];
    for (std::size_t k = 1; k < n_; ++k) {
        chirp_spec_re_[k] = chirp_re_[k];
        chirp_spec_im_[k] = chirp_im_[k];
        chirp_spec_re_[m_ - k] = chirp_re_[k];  // circular wrap, negative lags
        chirp_spec_im_[m_ - k] = chirp_im_[k];
    }
    // One-time dense transform (the wrapped chirp is nonzero at both ends
    // of the buffer, so the pruned forward does not apply).
    std::vector<double> wr(m_), wi(m_);
    conv_kernel_->forward_dense(chirp_spec_re_.data(), chirp_spec_im_.data(),
                                wr.data(), wi.data());
}

void Fft::bluestein_forward(double* re, double* im, FftScratch& scratch) const {
    // DFT via chirp-z: X_k = conj(b_k) * IFFT(FFT(a.*conj(b)) .* FFT(b))_k,
    // where b is the quadratic chirp.
    ensure_plane(scratch.bre, m_);
    ensure_plane(scratch.bim, m_);
    ensure_plane(scratch.wre, m_);
    ensure_plane(scratch.wim, m_);
    double* br = scratch.bre.data();
    double* bi = scratch.bim.data();
    const double* cr = chirp_re_.data();
    const double* ci = chirp_im_.data();
    for (std::size_t k = 0; k < n_; ++k) {  // a_k * conj(chirp_k)
        br[k] = re[k] * cr[k] + im[k] * ci[k];
        bi[k] = im[k] * cr[k] - re[k] * ci[k];
    }
    // [n_, m_) is structurally zero: the pruned convolution plan skips it.
    conv_kernel_->forward(br, bi, scratch.wre.data(), scratch.wim.data());
    const double* sr = chirp_spec_re_.data();
    const double* si = chirp_spec_im_.data();
    for (std::size_t k = 0; k < m_; ++k) {
        const double tr = br[k] * sr[k] - bi[k] * si[k];
        const double ti = br[k] * si[k] + bi[k] * sr[k];
        br[k] = tr;
        bi[k] = ti;
    }
    conv_kernel_->inverse(br, bi, scratch.wre.data(), scratch.wim.data());
    for (std::size_t k = 0; k < n_; ++k) {  // * conj(chirp_k)
        re[k] = br[k] * cr[k] + bi[k] * ci[k];
        im[k] = bi[k] * cr[k] - br[k] * ci[k];
    }
}

void Fft::forward_soa(double* re, double* im, FftScratch& scratch) const {
    if (pow2_) {
        ensure_plane(scratch.wre, n_);
        ensure_plane(scratch.wim, n_);
        kernel_->forward(re, im, scratch.wre.data(), scratch.wim.data());
        return;
    }
    bluestein_forward(re, im, scratch);
}

void Fft::inverse_soa(double* re, double* im, FftScratch& scratch) const {
    if (pow2_) {
        ensure_plane(scratch.wre, n_);
        ensure_plane(scratch.wim, n_);
        kernel_->inverse(re, im, scratch.wre.data(), scratch.wim.data());
        return;
    }
    // Inverse chirp-z through conjugation: IDFT(x) = conj(DFT(conj(x)))/n.
    for (std::size_t k = 0; k < n_; ++k) im[k] = -im[k];
    bluestein_forward(re, im, scratch);
    const double scale = 1.0 / static_cast<double>(n_);
    for (std::size_t k = 0; k < n_; ++k) {
        re[k] *= scale;
        im[k] = -im[k] * scale;
    }
}

void Fft::forward(std::vector<cplx>& data) const {
    FftScratch scratch;
    forward(data, scratch);
}

void Fft::inverse(std::vector<cplx>& data) const {
    FftScratch scratch;
    inverse(data, scratch);
}

void Fft::forward(std::vector<cplx>& data, FftScratch& scratch) const {
    if (data.size() != n_) throw std::invalid_argument("Fft::forward: size mismatch");
    ensure_plane(scratch.dre, n_);
    ensure_plane(scratch.dim, n_);
    double* re = scratch.dre.data();
    double* im = scratch.dim.data();
    for (std::size_t k = 0; k < n_; ++k) {
        re[k] = data[k].real();
        im[k] = data[k].imag();
    }
    forward_soa(re, im, scratch);
    for (std::size_t k = 0; k < n_; ++k) data[k] = cplx(re[k], im[k]);
}

void Fft::inverse(std::vector<cplx>& data, FftScratch& scratch) const {
    if (data.size() != n_) throw std::invalid_argument("Fft::inverse: size mismatch");
    ensure_plane(scratch.dre, n_);
    ensure_plane(scratch.dim, n_);
    double* re = scratch.dre.data();
    double* im = scratch.dim.data();
    for (std::size_t k = 0; k < n_; ++k) {
        re[k] = data[k].real();
        im[k] = data[k].imag();
    }
    inverse_soa(re, im, scratch);
    for (std::size_t k = 0; k < n_; ++k) data[k] = cplx(re[k], im[k]);
}

void RealFft::init(std::size_t n_nonzero) {
    if (n_ == 0) throw std::invalid_argument("RealFft: size must be positive");
    nz_ = (n_nonzero == 0 || n_nonzero > n_) ? n_ : n_nonzero;
    if (n_ % 2 != 0) return;  // odd-N fallback plans dense, pads at pack time
    packed_nz_ = (nz_ + 1) / 2;
    const std::size_t quarter = n_ / 4;
    twr_.resize(quarter + 1);
    twi_.resize(quarter + 1);
    for (std::size_t k = 0; k <= quarter; ++k) {
        const double angle = -2.0 * M_PI * static_cast<double>(k) / static_cast<double>(n_);
        twr_[k] = std::cos(angle);
        twi_[k] = std::sin(angle);
    }
}

RealFft::RealFft(std::size_t n, std::size_t n_nonzero) : n_(n) {
    init(n_nonzero);
    if (n_ % 2 == 0)
        half_plan_ = std::make_shared<const Fft>(n_ / 2, packed_nz_);
    else
        full_plan_ = std::make_shared<const Fft>(n_);
}

RealFft::RealFft(std::size_t n, FftPlanCache& cache, std::size_t n_nonzero)
    : n_(n) {
    init(n_nonzero);
    if (n_ % 2 == 0)
        half_plan_ = cache.complex_plan(n_ / 2, packed_nz_);
    else
        full_plan_ = cache.complex_plan(n_);
}

void RealFft::transform(std::span<const double> input, const double* window,
                        double* out_re, double* out_im, std::size_t out_stride,
                        FftScratch& scratch) const {
    if (input.size() != nz_)
        throw std::invalid_argument("RealFft::forward: size mismatch");

    if (full_plan_) {  // odd N fallback: plain complex transform
        ensure_plane(scratch.dre, n_);
        ensure_plane(scratch.dim, n_);
        double* re = scratch.dre.data();
        double* im = scratch.dim.data();
        if (window != nullptr)
            for (std::size_t i = 0; i < nz_; ++i) re[i] = input[i] * window[i];
        else
            for (std::size_t i = 0; i < nz_; ++i) re[i] = input[i];
        std::fill(re + nz_, re + n_, 0.0);
        std::fill(im, im + n_, 0.0);
        full_plan_->forward_soa(re, im, scratch);
        for (std::size_t k = 0; k <= n_ / 2; ++k) {
            out_re[k * out_stride] = re[k];
            out_im[k * out_stride] = im[k];
        }
        return;
    }

    // Pack adjacent real samples into one half-length complex sequence,
    // z_n = x_{2n} + i*x_{2n+1}, applying the window on the fly (this is
    // the fused windowing pass: no separate sweep over the samples).
    const std::size_t h = n_ / 2;
    ensure_plane(scratch.dre, h);
    ensure_plane(scratch.dim, h);
    double* zr = scratch.dre.data();
    double* zi = scratch.dim.data();
    const std::size_t pairs = nz_ / 2;
    if (window != nullptr) {
        for (std::size_t k = 0; k < pairs; ++k) {
            zr[k] = input[2 * k] * window[2 * k];
            zi[k] = input[2 * k + 1] * window[2 * k + 1];
        }
    } else {
        for (std::size_t k = 0; k < pairs; ++k) {
            zr[k] = input[2 * k];
            zi[k] = input[2 * k + 1];
        }
    }
    if (nz_ % 2 == 1) {
        zr[packed_nz_ - 1] =
            window != nullptr ? input[nz_ - 1] * window[nz_ - 1] : input[nz_ - 1];
        zi[packed_nz_ - 1] = 0.0;
    }
    // A pruned half plan treats [packed_nz_, h) as structural zero and
    // never reads it; a dense plan (non-power-of-two half) needs the
    // padding materialized.
    if (packed_nz_ < h && half_plan_->n_nonzero() == h) {
        std::fill(zr + packed_nz_, zr + h, 0.0);
        std::fill(zi + packed_nz_, zi + h, 0.0);
    }
    half_plan_->forward_soa(zr, zi, scratch);

    untangle_half_spectrum(zr, zi, h, twr_.data(), twi_.data(), out_re, out_im,
                           out_stride);
}

void RealFft::forward(std::span<const double> input, std::vector<cplx>& out,
                      FftScratch& scratch) const {
    const SpectrumOut o = spectrum_out(out, n_ / 2 + 1);
    transform(input, nullptr, o.re, o.im, o.stride, scratch);
}

void RealFft::forward_windowed(std::span<const double> input,
                               std::span<const double> window,
                               std::vector<cplx>& out,
                               FftScratch& scratch) const {
    if (window.size() != nz_)
        throw std::invalid_argument("RealFft::forward_windowed: window mismatch");
    const SpectrumOut o = spectrum_out(out, n_ / 2 + 1);
    transform(input, window.data(), o.re, o.im, o.stride, scratch);
}

void RealFft::forward_soa(std::span<const double> input,
                          std::vector<double>& out_re,
                          std::vector<double>& out_im,
                          FftScratch& scratch) const {
    const SpectrumOut o = spectrum_out(out_re, out_im, n_ / 2 + 1);
    transform(input, nullptr, o.re, o.im, o.stride, scratch);
}

void RealFft::forward_windowed_soa(std::span<const double> input,
                                   std::span<const double> window,
                                   std::vector<double>& out_re,
                                   std::vector<double>& out_im,
                                   FftScratch& scratch) const {
    if (window.size() != nz_)
        throw std::invalid_argument(
            "RealFft::forward_windowed_soa: window mismatch");
    const SpectrumOut o = spectrum_out(out_re, out_im, n_ / 2 + 1);
    transform(input, window.data(), o.re, o.im, o.stride, scratch);
}

const Fft& fft_plan(std::size_t n) {
    // The global cache retains every plan it hands out, so the reference
    // stays valid for the life of the process.
    return *FftPlanCache::global().complex_plan(n);
}

}  // namespace witrack::dsp
