// The one timing type of the tree: a fixed-size, mergeable log-linear
// latency histogram on one clock, profile_ticks(). Pipeline steps, the
// whole pipeline frame, application stages and the host step all record
// into it, so every layer is measured the same way and nests on the same
// clock. add() is O(1), allocation- and lock-free; an instance is owned by
// the one thread stepping its session.
//
// Buckets are HDR-style: exact below 8 ns, then 8 linear sub-buckets per
// power of two up to 2^32 ns (~4.3 s), so a bucket is at most 1/8 of its
// lower bound wide. Larger samples land in the top bucket; frames, total_s
// and max_s stay exact regardless.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace witrack::common {

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
/// steady_clock (a ~2 ms busy wait on first use).
inline double profile_seconds_per_tick() {
    static const double seconds_per_tick = [] {
        const auto t0 = std::chrono::steady_clock::now();
        const std::uint64_t c0 = profile_ticks();
        while (std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(2)) {
        }
        const std::uint64_t c1 = profile_ticks();
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        return c1 > c0 ? seconds / static_cast<double>(c1 - c0) : 0.0;
    }();
    return seconds_per_tick;
}

/// Seconds elapsed since `start`, a profile_ticks() reading.
inline double seconds_since(std::uint64_t start) {
    return static_cast<double>(profile_ticks() - start) * profile_seconds_per_tick();
}

struct LatencyHistogram {
    static constexpr int kSubBits = 3;  ///< 8 sub-buckets per power of two
    static constexpr std::size_t kBuckets = (32 - kSubBits + 1) << kSubBits;

    std::uint64_t frames = 0;  ///< samples
    double total_s = 0.0;
    double max_s = 0.0;
    std::array<std::uint64_t, kBuckets> counts{};

    void add(double seconds) {
        ++frames;
        total_s += seconds;
        max_s = std::max(max_s, seconds);
        ++counts[bucket(seconds > 0.0 ? static_cast<std::uint64_t>(
                                            std::min(seconds * 1e9, 0x1p63))
                                      : 0)];
    }
    void merge(const LatencyHistogram& other) {
        frames += other.frames;
        total_s += other.total_s;
        max_s = std::max(max_s, other.max_s);
        for (std::size_t i = 0; i < kBuckets; ++i) counts[i] += other.counts[i];
    }
    void reset() { *this = LatencyHistogram{}; }

    double mean_s() const {
        return frames > 0 ? total_s / static_cast<double>(frames) : 0.0;
    }
    /// The midpoint of the bucket holding the q-quantile sample, or max_s
    /// when that is the highest occupied bucket (so quantile_s(1) ==
    /// max_s); 0 when empty.
    double quantile_s(double q) const {
        const auto rank = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(frames))));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kBuckets && frames > 0; ++i) {
            if ((seen += counts[i]) < rank) continue;
            if (seen == frames) return max_s;
            // Bucket i spans [lower, lower + width) ns: bucket()'s inverse.
            const auto group = static_cast<int>(i >> kSubBits);
            const double width = group == 0 ? 1.0 : std::ldexp(1.0, group - 1);
            const double lower = group == 0 ? static_cast<double>(i)
                                            : static_cast<double>((i & 7) | 8) * width;
            return (lower + 0.5 * width) * 1e-9;
        }
        return 0.0;
    }

    static std::size_t bucket(std::uint64_t ns) {
        if (ns < (1u << kSubBits)) return static_cast<std::size_t>(ns);
        const int exponent = static_cast<int>(std::bit_width(ns)) - 1;
        const auto index = static_cast<std::size_t>(
            ((exponent - kSubBits + 1) << kSubBits) | ((ns >> (exponent - kSubBits)) & 7));
        return std::min(index, kBuckets - 1);
    }
};

/// Records the enclosing scope's duration into a histogram at scope exit.
class ScopedLatency {
  public:
    explicit ScopedLatency(LatencyHistogram& histogram)
        : histogram_(histogram), start_(profile_ticks()) {}
    ~ScopedLatency() { histogram_.add(seconds_since(start_)); }
    ScopedLatency(const ScopedLatency&) = delete;
    ScopedLatency& operator=(const ScopedLatency&) = delete;

  private:
    LatencyHistogram& histogram_;
    std::uint64_t start_;
};

}  // namespace witrack::common
