// Frozen scalar reference of the range transform: the radix-4 Stockham
// schedule with its pruning regions, the windowed r2c pack and the paired
// half-spectrum untangle, exactly as the library ran them before its
// kernels were fused into multi-stage vector passes. Every expression keeps
// the library's IEEE-754 operation order (and twiddle formulas), so the
// production kernels at every dispatch level must match this reference
// byte for byte. Test-only; tests/test_fft.cpp is built with
// -ffp-contract=off so none of this contracts into FMA.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace witrack::reference {

/// The reference Pow2Kernel: plan (stages and twiddles) and forward pass.
class Pow2Reference {
  public:
    Pow2Reference(std::size_t n, std::size_t n_nonzero) : n_(n) {
        nz_ = (n_nonzero == 0 || n_nonzero > n_) ? n_ : n_nonzero;
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
    }

    /// Forward transform in place in (xr, xi); (wr, wi) are work planes.
    void forward(double* xr, double* xi, double* wr, double* wi) const {
        std::size_t nzb = nz_;
        const std::size_t n = n_;
        const double* tw = tw_.data();
        double* sr = xr;
        double* si = xi;
        double* dr = wr;
        double* di = wi;
        if (stages_.size() % 2 == 1) {
            std::copy(xr, xr + nzb, wr);
            std::copy(xi, xi + nzb, wi);
            sr = wr;
            si = wi;
            dr = xr;
            di = xi;
        }
        const std::size_t n4 = n / 4;
        for (const Stage& st : stages_) {
            const std::size_t s = st.stride;
            if (st.radix == 2) {
                const std::size_t h = n / 2;
                const std::size_t t0 = std::min(nzb, h);
                const std::size_t t1 = nzb > h ? nzb - h : 0;
                for (std::size_t q = 0; q < t1; ++q) {
                    const double ar = sr[q], ai = si[q];
                    const double br = sr[q + h], bi = si[q + h];
                    dr[q] = ar + br;
                    di[q] = ai + bi;
                    dr[q + h] = ar - br;
                    di[q + h] = ai - bi;
                }
                for (std::size_t q = t1; q < t0; ++q) {
                    const double ar = sr[q], ai = si[q];
                    dr[q] = ar;
                    di[q] = ai;
                    dr[q + h] = ar;
                    di[q + h] = ai;
                }
                nzb = t0 > 0 ? n : 0;
                std::swap(sr, dr);
                std::swap(si, di);
                continue;
            }
            const std::size_t m = st.m;
            const double* w1r = tw + st.tw_offset;
            const double* w1i = w1r + m;
            const double* w2r = w1i + m;
            const double* w2i = w2r + m;
            const double* w3r = w2i + m;
            const double* w3i = w3r + m;
            std::size_t t[4];
            for (std::size_t k = 0; k < 4; ++k) {
                const std::size_t cut = k * n4;
                const std::size_t tk = nzb > cut ? nzb - cut : 0;
                t[k] = std::min(tk, n4);
            }
            const std::size_t p0 = (t[0] + s - 1) / s;
            const std::size_t p1 = (t[1] + s - 1) / s;
            const std::size_t p2 = (t[2] + s - 1) / s;
            const std::size_t p3 = (t[3] + s - 1) / s;
            for (std::size_t p = 0; p < p0; ++p) {
                const double* xr0 = sr + s * p;
                const double* xi0 = si + s * p;
                double* yr = dr + 4 * s * p;
                double* yi = di + 4 * s * p;
                const double u1r = w1r[p], u1i = w1i[p];
                const double u2r = w2r[p], u2i = w2i[p];
                const double u3r = w3r[p], u3i = w3i[p];
                for (std::size_t q = 0; q < s; ++q) {
                    const double ar = xr0[q], ai = xi0[q];
                    double y0r, y0i, t1r, t1i, t2r, t2i, t3r, t3i;
                    if (p < p3) {  // all four operands live
                        const double br = xr0[q + n4], bi = xi0[q + n4];
                        const double cr = xr0[q + 2 * n4], ci = xi0[q + 2 * n4];
                        const double er = xr0[q + 3 * n4], ei = xi0[q + 3 * n4];
                        const double apcr = ar + cr, apci = ai + ci;
                        const double amcr = ar - cr, amci = ai - ci;
                        const double bpdr = br + er, bpdi = bi + ei;
                        const double jr = ei - bi, ji = br - er;
                        y0r = apcr + bpdr;
                        y0i = apci + bpdi;
                        t1r = amcr - jr;
                        t1i = amci - ji;
                        t2r = apcr - bpdr;
                        t2i = apci - bpdi;
                        t3r = amcr + jr;
                        t3i = amci + ji;
                    } else if (p < p2) {  // d structurally zero
                        const double br = xr0[q + n4], bi = xi0[q + n4];
                        const double cr = xr0[q + 2 * n4], ci = xi0[q + 2 * n4];
                        const double apcr = ar + cr, apci = ai + ci;
                        const double amcr = ar - cr, amci = ai - ci;
                        y0r = apcr + br;
                        y0i = apci + bi;
                        t1r = amcr + bi;
                        t1i = amci - br;
                        t2r = apcr - br;
                        t2i = apci - bi;
                        t3r = amcr - bi;
                        t3i = amci + br;
                    } else if (p < p1) {  // c and d structurally zero
                        const double br = xr0[q + n4], bi = xi0[q + n4];
                        y0r = ar + br;
                        y0i = ai + bi;
                        t1r = ar + bi;
                        t1i = ai - br;
                        t2r = ar - br;
                        t2i = ai - bi;
                        t3r = ar - bi;
                        t3i = ai + br;
                    } else {  // only a live
                        y0r = ar;
                        y0i = ai;
                        t1r = t2r = t3r = ar;
                        t1i = t2i = t3i = ai;
                    }
                    yr[q] = y0r;
                    yi[q] = y0i;
                    yr[q + s] = u1r * t1r - u1i * t1i;
                    yi[q + s] = u1r * t1i + u1i * t1r;
                    yr[q + 2 * s] = u2r * t2r - u2i * t2i;
                    yi[q + 2 * s] = u2r * t2i + u2i * t2r;
                    yr[q + 3 * s] = u3r * t3r - u3i * t3i;
                    yi[q + 3 * s] = u3r * t3i + u3i * t3r;
                }
            }
            nzb = 4 * s * p0;
            std::swap(sr, dr);
            std::swap(si, di);
        }
    }

    std::size_t size() const { return n_; }

  private:
    struct Stage {
        std::size_t radix, stride, m, tw_offset;
    };
    std::size_t n_ = 0;
    std::size_t nz_ = 0;
    std::vector<Stage> stages_;
    std::vector<double> tw_;
};

/// Reference r2c half spectrum of input[i] * window[i] (nz samples, zero
/// padded to the next power of two N): windowed pack into one N/2-point
/// sequence, the pruned reference kernel, and the paired untangle.
inline void real_forward(const std::vector<double>& input,
                         const std::vector<double>& window,
                         std::vector<double>& ore, std::vector<double>& oim) {
    const std::size_t nz = input.size();
    std::size_t n = 1;
    while (n < nz) n <<= 1;
    const std::size_t h = n / 2;
    const std::size_t packed_nz = (nz + 1) / 2;
    std::vector<double> zr(h), zi(h), wr(h), wi(h);
    const std::size_t pairs = nz / 2;
    for (std::size_t k = 0; k < pairs; ++k) {
        zr[k] = input[2 * k] * window[2 * k];
        zi[k] = input[2 * k + 1] * window[2 * k + 1];
    }
    if (nz % 2 == 1) {
        zr[packed_nz - 1] = input[nz - 1] * window[nz - 1];
        zi[packed_nz - 1] = 0.0;
    }
    Pow2Reference(h, packed_nz).forward(zr.data(), zi.data(), wr.data(), wi.data());

    std::vector<double> twr(n / 4 + 1), twi(n / 4 + 1);
    for (std::size_t k = 0; k <= n / 4; ++k) {
        const double angle = -2.0 * M_PI * static_cast<double>(k) / static_cast<double>(n);
        twr[k] = std::cos(angle);
        twi[k] = std::sin(angle);
    }
    ore.assign(h + 1, 0.0);
    oim.assign(h + 1, 0.0);
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
        const double tr = twr[k] * odr - twi[k] * odi;
        const double ti = twr[k] * odi + twi[k] * odr;
        ore[k] = er + tr;
        oim[k] = ei + ti;
        ore[h - k] = er - tr;
        oim[h - k] = ti - ei;
    }
    if (h % 2 == 0 && h >= 2) {
        ore[h / 2] = zr[h / 2];
        oim[h / 2] = -zi[h / 2];
    }
}

}  // namespace witrack::reference
