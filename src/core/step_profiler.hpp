// Lightweight per-pipeline-step cycle profiling for the realtime frame
// path. The hot path records raw timestamp-counter deltas (one rdtsc pair
// per step, ~tens of cycles of overhead against a multi-microsecond step)
// into plain counters; conversion to seconds happens only when the
// counters are harvested, using a once-per-process calibration against
// steady_clock. Counters are lock-free accumulators owned by the one
// thread stepping the session.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace witrack::core {

/// Raw monotonic tick source: the x86-64 timestamp counter (constant-rate
/// on every deployment-relevant CPU), steady_clock ticks elsewhere.
inline std::uint64_t profile_ticks() {
#if defined(__x86_64__) || defined(_M_X64)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Seconds per profile_ticks() tick, calibrated once per process against
/// steady_clock (a ~2 ms one-time busy wait on first use). Harvest-time
/// only -- never called on the frame path.
inline double profile_seconds_per_tick() {
    static const double seconds_per_tick = [] {
        const auto t0 = std::chrono::steady_clock::now();
        const std::uint64_t c0 = profile_ticks();
        while (std::chrono::steady_clock::now() - t0 <
               std::chrono::milliseconds(2)) {
        }
        const std::uint64_t c1 = profile_ticks();
        const auto t1 = std::chrono::steady_clock::now();
        const double seconds = std::chrono::duration<double>(t1 - t0).count();
        return c1 > c0 ? seconds / static_cast<double>(c1 - c0) : 0.0;
    }();
    return seconds_per_tick;
}

/// Accumulated cost of one pipeline step: sample count, total ticks, and
/// the worst single sample.
struct StepCounter {
    std::uint64_t frames = 0;
    std::uint64_t ticks = 0;
    std::uint64_t max_ticks = 0;

    void add(std::uint64_t t) {
        ++frames;
        ticks += t;
        if (t > max_ticks) max_ticks = t;
    }
    void reset() { frames = 0; ticks = 0; max_ticks = 0; }

    double total_seconds() const {
        return static_cast<double>(ticks) * profile_seconds_per_tick();
    }
    double max_seconds() const {
        return static_cast<double>(max_ticks) * profile_seconds_per_tick();
    }
};

/// RAII step timer: records the enclosing scope's tick delta into the
/// counter at scope exit.
class ScopedStepTimer {
  public:
    explicit ScopedStepTimer(StepCounter& counter)
        : counter_(counter), start_(profile_ticks()) {}
    ~ScopedStepTimer() { counter_.add(profile_ticks() - start_); }
    ScopedStepTimer(const ScopedStepTimer&) = delete;
    ScopedStepTimer& operator=(const ScopedStepTimer&) = delete;

  private:
    StepCounter& counter_;
    std::uint64_t start_;
};

}  // namespace witrack::core
