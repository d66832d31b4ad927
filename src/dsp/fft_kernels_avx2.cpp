// AVX2 (256-bit) instantiations of the lane-templated butterfly loops.
// This is the only translation unit compiled with -mavx2 (x86 builds; see
// CMakeLists.txt) -- dispatch guarantees its entry points are reached only
// after __builtin_cpu_supports("avx2") succeeded. It is deliberately also
// built with -ffp-contract=off like the other kernel TUs, so no FMA is
// emitted and the AVX2 level stays bit-identical to the scalar one.
#include "dsp/fft_kernels_impl.hpp"

namespace witrack::dsp::kernels::detail {

#if defined(__AVX2__)

void forward_avx2(const Pow2Kernel& plan, double* xr, double* xi, double* wr,
                  double* wi, std::size_t nzb) {
    run_forward_t<simd::AvxD>(plan, xr, xi, wr, wi, nzb);
}

#else  // !__AVX2__

void forward_avx2(const Pow2Kernel& plan, double* xr, double* xi, double* wr,
                  double* wi, std::size_t nzb) {
    forward_scalar(plan, xr, xi, wr, wi, nzb);
}

#endif  // __AVX2__

}  // namespace witrack::dsp::kernels::detail
