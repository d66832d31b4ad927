// SSE2 (128-bit) instantiation of the blocked beat-tone kernel. Built with
// the library's baseline flags: SSE2 is guaranteed on x86-64. On targets
// without SSE2 the entry point degrades to the scalar level (dispatch never
// selects kSse2 there, but the symbol must still link).
#include "hw/mixer_kernels_impl.hpp"

namespace witrack::hw::mixer_kernels::detail {

void accumulate_sse2(const Tone* tones, std::size_t count, const double* ripple,
                     double* out, std::size_t n) {
#if defined(__SSE2__)
    run_tones<dsp::simd::SseD>(tones, count, ripple, out, n);
#else
    accumulate_scalar(tones, count, ripple, out, n);
#endif
}

}  // namespace witrack::hw::mixer_kernels::detail
