// Deterministic random number generation. Every stochastic component in the
// simulator draws from an explicitly seeded Rng so experiments reproduce
// bit-for-bit across runs.
//
// One generator family serves the whole tree: splitmix64 (Steele, Lea and
// Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014).
// Its output is pinned by 64-bit integer arithmetic, and every distribution
// below is written out here instead of taken from <random>, whose
// distributions are implementation-defined. A seed therefore reproduces the
// same stream on any standard library; the only libm dependency is std::log
// in the Gaussian, exponential and Rayleigh transforms. The floating-point
// transforms live in random.cpp, built with -ffp-contract=off, so an
// FMA-capable build (-march=x86-64-v3) cannot fuse their mul+add pairs and
// change the stream either.
#pragma once

#include <cstdint>
#include <span>

namespace witrack {

/// The bare splitmix64 stream: a 64-bit counter advanced by the golden
/// gamma and passed through the murmur3-style finalizer. The fault
/// injectors roll their Bernoulli decisions directly on it; Rng builds the
/// simulator's distributions on top of it.
class SplitMix64 {
  public:
    static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;

    explicit SplitMix64(std::uint64_t state = 0) : state_(state) {}

    std::uint64_t next() {
        std::uint64_t z = (state_ += kGamma);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /// Uniform double in [0, 1) from the top 53 bits.
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /// Bernoulli trial; rates outside (0, 1) decide without drawing.
    bool roll(double rate) {
        if (rate <= 0.0) return false;
        if (rate >= 1.0) return true;
        return unit() < rate;
    }

    /// The whole generator state (for snapshots).
    std::uint64_t state() const { return state_; }
    void set_state(std::uint64_t state) { state_ = state; }

  private:
    std::uint64_t state_;
};

/// Seedable random source over splitmix64.
///
/// Components that need independent streams derive them with fork(), which
/// produces a generator decorrelated from (but deterministically derived
/// from) its parent.
class Rng {
  public:
    /// Complete generator state: the splitmix64 counter plus the unused
    /// second value of the last Gaussian pair.
    struct State {
        std::uint64_t counter = 0;
        bool has_spare = false;
        double spare = 0.0;
    };

    explicit Rng(std::uint64_t seed = 0x5eed'ca11'f00d'beefULL) : bits_(seed) {}

    /// Uniform double in [lo, hi).
    double uniform(double lo = 0.0, double hi = 1.0);

    /// Gaussian with the given standard deviation and mean.
    double gaussian(double stddev = 1.0, double mean = 0.0);

    /// out[i] += gaussian(stddev) for every element, in order: the same
    /// stream, and the same values, as that many gaussian() calls.
    void add_gaussian(std::span<double> out, double stddev);

    /// Rayleigh-distributed magnitude with the given scale parameter; used
    /// for Swerling-style radar-cross-section scintillation.
    double rayleigh(double sigma);

    /// Exponential with the given mean (inversion; 1 - u lies in (0, 1]).
    double exponential(double mean);

    /// Uniform integer in [lo, hi] inclusive, unbiased: draws below
    /// 2^64 mod span are rejected so every residue is equally likely.
    int uniform_int(int lo, int hi) {
        const std::uint64_t span =
            static_cast<std::uint64_t>(static_cast<std::int64_t>(hi) - lo) + 1;
        const std::uint64_t reject_below = (0 - span) % span;
        std::uint64_t x = bits_.next();
        while (x < reject_below) x = bits_.next();
        return static_cast<int>(static_cast<std::int64_t>(lo) +
                                static_cast<std::int64_t>(x % span));
    }

    /// Bernoulli trial.
    bool chance(double probability) { return uniform() < probability; }

    /// Derive an independent child generator. Mixes the label with splitmix64
    /// so fork(0) and fork(1) are decorrelated.
    Rng fork(std::uint64_t label) {
        std::uint64_t x = bits_.next() ^ (SplitMix64::kGamma + label);
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return Rng(x ^ (x >> 31));
    }

    State state() const { return {bits_.state(), has_spare_, spare_}; }
    void set_state(const State& s) {
        bits_.set_state(s.counter);
        has_spare_ = s.has_spare;
        spare_ = s.spare;
    }

  private:
    /// Marsaglia's polar form of Box-Muller: a point uniform in the unit
    /// disc yields two independent standard normals, and both are used --
    /// the second is handed out by the next call.
    double standard_normal();

    SplitMix64 bits_;
    bool has_spare_ = false;
    double spare_ = 0.0;
};

}  // namespace witrack
