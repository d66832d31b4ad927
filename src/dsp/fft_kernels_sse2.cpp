// SSE2 (128-bit) instantiations of the lane-templated butterfly loops.
// Built with the library's baseline flags: SSE2 is guaranteed on x86-64,
// so this translation unit needs no extra -m options. On targets without
// SSE2 the entry points degrade to the scalar level (dispatch never selects
// kSse2 there, but the symbols must still link).
#include "dsp/fft_kernels_impl.hpp"

namespace witrack::dsp::kernels::detail {

#if defined(__SSE2__)

void forward_sse2(const Pow2Kernel& plan, double* xr, double* xi, double* wr,
                  double* wi, std::size_t nzb) {
    run_forward_t<simd::SseD>(plan, xr, xi, wr, wi, nzb);
}

#else  // !__SSE2__

void forward_sse2(const Pow2Kernel& plan, double* xr, double* xi, double* wr,
                  double* wi, std::size_t nzb) {
    forward_scalar(plan, xr, xi, wr, wi, nzb);
}

#endif  // __SSE2__

}  // namespace witrack::dsp::kernels::detail
