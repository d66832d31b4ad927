// Power-of-two FFT kernel engine: structure-of-arrays (separate re/im
// planes), iterative Stockham radix-4 with a radix-2 fixup stage, and
// per-stage sequentially-laid-out twiddle tables. It computes the forward
// transform only (the range pipeline never inverts a spectrum), and the
// real-input transform built on it (real_forward, behind fft.hpp's
// RealFft), whose windowed even/odd pack and half-spectrum untangle run
// inside the kernel's first and last passes.
//
// The plan groups its stages into passes over memory: the stride-1 and
// stride-4 stages together (vectorized across butterflies) unless pruning
// leaves fewer than n/4 live inputs, then pairs of
// dense radix-4 stages fused in registers (radix-16), the last dense
// radix-4 stage fused with the radix-2 fixup (radix-8), and single stages
// wherever input pruning (below) still leaves structural zeros. The fused
// passes compute every element with exactly the operations and twiddles
// of the stage-by-stage schedule; they only keep the intermediate stage in
// registers. A 2048-point transform runs its 6 stages in 3 passes.
// The loops are written once as lane templates over the SIMD layer in
// simd.hpp (fft_kernels_impl.hpp) and instantiated per ISA -- scalar and
// AVX2 -- with a runtime-dispatched entry point, so one plan serves both
// dispatch levels with bit-identical results.
//
// Input pruning: a kernel built with n_nonzero < n treats the input tail
// [n_nonzero, n) as structurally zero and skips the early-stage butterflies
// whose operands are all inside that tail. The range pipeline zero-pads a
// 2500-sample sweep into a 4096-point transform, so the packed half-length
// sequence it actually transforms is ~39% structural zeros.
// Pruned and unpruned kernels of one size produce results equal under
// operator== (skipped butterflies may flip the sign of an exact zero, which
// IEEE-754 compares equal).
#pragma once

#include <cstddef>
#include <vector>

namespace witrack::dsp::kernels {

/// One stage of the iterative plan. Public (rather than a Pow2Kernel
/// private) so the per-ISA butterfly translation units can walk the plan;
/// see fft_kernels_impl.hpp.
struct FftStage {
    std::size_t radix;      ///< 4, or 2 for the final fixup stage
    std::size_t stride;     ///< s: n / sub_n for this stage
    std::size_t m;          ///< butterflies per sub-transform (sub_n/radix)
    std::size_t tw_offset;  ///< start of this stage's table in twiddles()
};

/// How one pass over memory runs its stage(s).
enum class PassKind : unsigned char {
    kStride1Radix16,  ///< the stride-1 and stride-4 stages, across butterflies
    kRadix4,          ///< one radix-4 stage, along its stride
    kRadix16,         ///< two dense radix-4 stages (stage, stage + 1)
    kRadix8,          ///< the last dense radix-4 stage and the radix-2 fixup
    kRadix2,          ///< the radix-2 fixup alone
};

/// One pass: its kind, its first stage, and the live input prefix it
/// reads (the pruning bound; size() once the data is dense).
struct FftPass {
    PassKind kind;
    std::size_t stage;
    std::size_t live;
};

class Pow2Kernel {
  public:
    /// Build a plan for a power-of-two transform of `n` points whose input
    /// is nonzero only in the prefix [0, n_nonzero). n_nonzero of 0 (or
    /// >= n) means a dense input. Throws std::invalid_argument unless n is
    /// a power of two.
    explicit Pow2Kernel(std::size_t n, std::size_t n_nonzero = 0);

    std::size_t size() const { return n_; }
    /// Effective nonzero prefix the forward kernel assumes (n when dense).
    std::size_t n_nonzero() const { return nz_; }

    /// Forward DFT of the SoA data in (xr, xi). Only the first n_nonzero()
    /// entries are read; the tail is treated as exactly zero and may hold
    /// anything. (wr, wi) are caller-owned ping-pong work planes. All four
    /// planes must hold size() doubles; the result lands in (xr, xi).
    void forward(double* xr, double* xi, double* wr, double* wi) const;

    static bool is_power_of_two(std::size_t n) {
        return n != 0 && (n & (n - 1)) == 0;
    }

    /// The stage sequence, its grouping into passes and the twiddle
    /// storage, exposed read-only for the per-ISA kernel translation units.
    const std::vector<FftStage>& plan_stages() const { return stages_; }
    const std::vector<FftPass>& plan_passes() const { return passes_; }
    const std::vector<double>& twiddles() const { return tw_; }

  private:
    std::size_t n_ = 0;
    std::size_t nz_ = 0;
    std::vector<FftStage> stages_;
    std::vector<FftPass> passes_;
    // Forward twiddles, sequential per stage. A radix-4 stage with m
    // butterflies stores six contiguous runs of m doubles:
    //   [w1.re | w1.im | w2.re | w2.im | w3.re | w3.im],
    // w_k[p] = exp(-2*pi*i * k*p / sub_n), so every butterfly loop walks
    // its tables linearly (the stride-1 pass loads them as vectors). The
    // radix-2 fixup stage (sub_n = 2) needs no table (its only twiddle is
    // 1).
    std::vector<double> tw_;
};

/// The real-input transform of fft.hpp on the h-point plan `half`
/// (dispatched like Pow2Kernel::forward), bit-identical to these three
/// steps in sequence:
///   1. pack: z_k = x[2k] w[2k] + i x[2k+1] w[2k+1] for the `samples`
///      samples (an odd last sample pairs with +0.0), zero-padded to h;
///   2. Z = half.forward(z), with half pruned to the packed length;
///   3. untangle the even/odd sub-spectra of Z into X_0..X_h in (ore, oim):
///        X_k = E_k + w^k O_k,  E_k = (Z_k + conj(Z_{h-k}))/2,
///        O_k = -i/2 (Z_k - conj(Z_{h-k})),  w = exp(-2*pi*i/(2h)),
///      one step per pair (X_k, X_{h-k} = conj(E_k - w^k O_k)), so h/2
///      steps; X_0, X_{h/2} and X_h come straight from Z_0 and Z_{h/2}.
/// For an even sweep the pack is fused into the first pass (z is formed on
/// load), and where the plan's last pass is a radix-8 pass (as the range
/// pipeline's 2048-point half plan's is) the untangle is fused into it (Z
/// is untangled from registers), so neither z nor most of Z is ever
/// stored. (twr, twi) hold w^k for k <= h/2;
/// (ore, oim) hold h + 1 bins; (zr, zi, wr, wi) are h-point work planes.
void real_forward(const Pow2Kernel& half, const double* x, const double* w,
                  std::size_t samples, const double* twr, const double* twi,
                  double* ore, double* oim, double* zr, double* zi, double* wr,
                  double* wi);

}  // namespace witrack::dsp::kernels
