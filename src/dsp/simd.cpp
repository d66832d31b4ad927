#include "dsp/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace witrack::dsp::simd {

const char* to_string(Level level) noexcept {
    switch (level) {
        case Level::kScalar: return "scalar";
        case Level::kAvx2: return "avx2";
    }
    return "unknown";
}

Level detect() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
    // AVX2 needs a runtime check because the library is built for the
    // baseline and only the dedicated AVX2 translation units carry AVX2 code.
    static const Level detected =
        __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kScalar;
    return detected;
#else
    return Level::kScalar;
#endif
}

namespace {

Level clamp_to_hardware(Level level) noexcept {
    return static_cast<int>(level) <= static_cast<int>(detect()) ? level
                                                                 : detect();
}

Level resolve_initial() noexcept {
    // "avx2" is the top level, so it means detect(); an unknown value (a
    // retired level name included) keeps detect() too rather than crash or
    // silently slow down.
    const char* env = std::getenv("WITRACK_SIMD");
    if (env != nullptr && std::strcmp(env, "scalar") == 0) return Level::kScalar;
    return detect();
}

/// -1 = not yet resolved; otherwise a Level. Relaxed ordering suffices:
/// every resolution produces the same value, and force() is a test hook.
std::atomic<int> g_active{-1};

}  // namespace

Level active() noexcept {
    const int cached = g_active.load(std::memory_order_relaxed);
    if (cached >= 0) return static_cast<Level>(cached);
    const Level resolved = resolve_initial();
    g_active.store(static_cast<int>(resolved), std::memory_order_relaxed);
    return resolved;
}

Level force(Level level) noexcept {
    const Level clamped = clamp_to_hardware(level);
    g_active.store(static_cast<int>(clamped), std::memory_order_relaxed);
    return clamped;
}

}  // namespace witrack::dsp::simd
