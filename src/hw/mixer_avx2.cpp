// AVX2 (256-bit) instantiation of the blocked beat-tone kernel. This is the
// only mixer translation unit compiled with -mavx2 (see CMakeLists.txt);
// runtime dispatch guards entry, and on builds without AVX2 support the
// entry point forwards to the scalar level so the symbol always links.
#include "hw/mixer_kernels_impl.hpp"

namespace witrack::hw::mixer_kernels::detail {

void accumulate_avx2(const Tone* tones, std::size_t count, const double* ripple,
                     double* out, std::size_t n) {
#if defined(__AVX2__)
    run_tones<dsp::simd::AvxD>(tones, count, ripple, out, n);
#else
    accumulate_scalar(tones, count, ripple, out, n);
#endif
}

}  // namespace witrack::hw::mixer_kernels::detail
