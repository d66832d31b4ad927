#include "dsp/fft.hpp"

#include <cmath>
#include <cstdint>
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

/// Placement of the work planes. The kernel's passes load from one plane
/// pair while storing to another (or to the output planes) at matching
/// indices, and two planes that start a multiple of 4 KiB apart alias in
/// the CPU's store-to-load address check on nearly every access, which
/// costs ~15% of the transform. So the four planes start 576 bytes apart
/// modulo 4 KiB, and the block is placed half a page from the output.
constexpr std::size_t kPageDoubles = 4096 / sizeof(double);
constexpr std::size_t kPlaneStagger = 72;

std::size_t page_offset(const double* p) {
    return static_cast<std::size_t>(reinterpret_cast<std::uintptr_t>(p) / sizeof(double)) %
           kPageDoubles;
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
    // z_n = x_{2n} + i*x_{2n+1}, applying the window on the fly, transform
    // it and untangle the half spectrum (kernels::real_forward fuses the
    // pack and the untangle into the kernel's first and last passes). The
    // pruned half plan treats [packed_nz_, h) as structural zero and never
    // reads it.
    const std::size_t h = n_ / 2;
    const std::size_t stride = h + kPlaneStagger;
    if (scratch.planes.size() < 4 * stride + kPageDoubles)
        scratch.planes.resize(4 * stride + kPageDoubles);
    out_re.resize(h + 1);
    out_im.resize(h + 1);
    double* planes = scratch.planes.data();
    const std::size_t target = (page_offset(out_re.data()) + kPageDoubles / 2) % kPageDoubles;
    planes += (target + kPageDoubles - page_offset(planes)) % kPageDoubles;
    kernels::real_forward(half_, input.data(), window.data(), nz_, twr_.data(),
                          twi_.data(), out_re.data(), out_im.data(), planes,
                          planes + stride, planes + 2 * stride, planes + 3 * stride);
}

}  // namespace witrack::dsp
