// AVX2 (256-bit) instantiations of the lane-templated transform passes and
// the r2c pack and untangle.
// This is the only translation unit compiled with -mavx2 (x86 builds; see
// CMakeLists.txt) -- dispatch guarantees its entry points are reached only
// after __builtin_cpu_supports("avx2") succeeded. It is deliberately also
// built with -ffp-contract=off like the other kernel TUs, so no FMA is
// emitted and the AVX2 level stays bit-identical to the scalar one.
#include "dsp/fft_kernels_impl.hpp"

namespace witrack::dsp::kernels::detail {

#if defined(__AVX2__)

void forward_avx2(const Pow2Kernel& plan, double* xr, double* xi, double* wr,
                  double* wi) {
    run_forward_t<simd::AvxD>(plan, xr, xi, wr, wi);
}

void real_forward_avx2(const Pow2Kernel& half, const double* x, const double* w,
                       std::size_t samples, const double* twr, const double* twi,
                       double* ore, double* oim, double* zr, double* zi,
                       double* wr, double* wi) {
    run_real_forward_t<simd::AvxD>(half, x, w, samples, twr, twi, ore, oim, zr, zi,
                                   wr, wi);
}

#else  // !__AVX2__

void forward_avx2(const Pow2Kernel& plan, double* xr, double* xi, double* wr,
                  double* wi) {
    forward_scalar(plan, xr, xi, wr, wi);
}

void real_forward_avx2(const Pow2Kernel& half, const double* x, const double* w,
                       std::size_t samples, const double* twr, const double* twi,
                       double* ore, double* oim, double* zr, double* zi,
                       double* wr, double* wi) {
    real_forward_scalar(half, x, w, samples, twr, twi, ore, oim, zr, zi, wr, wi);
}

#endif  // __AVX2__

}  // namespace witrack::dsp::kernels::detail
