// Analysis-tail tests: the background subtractor's fused difference/
// magnitude/history loop, the contour's extent moments and band max scan,
// and the windowed peak helpers of dsp/peaks.hpp -- reference semantics
// for each, the sqrt(re^2+im^2) magnitude accuracy budget against
// std::abs/hypot, and the bit-identity of the nth_element noise floor and
// windowed peak scan against their allocating predecessors. Built with
// -ffp-contract=off, like the code under test, so the in-test references
// stay exact under an FMA-capable -march.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <random>
#include <vector>

#include "core/background.hpp"
#include "dsp/peaks.hpp"

namespace witrack::dsp {
namespace {

/// Plane lengths covering every four-slot remainder of the reductions:
/// empty, below one slot group, one group, group + tail, and wider shapes
/// up to the half spectrum of a 4096-point FFT.
constexpr std::size_t kPlaneSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9,
                                       13, 64, 127, 1024, 2049};

std::vector<double> random_plane(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::normal_distribution<double> dist;
    std::vector<double> v(n);
    for (auto& x : v) x = dist(rng);
    return v;
}

/// A magnitude-profile-shaped vector: non-negative, with structure that
/// produces real local maxima for the peak scans.
std::vector<double> random_profile(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double hump =
            std::sin(static_cast<double>(i) * 0.37) * std::sin(static_cast<double>(i) * 0.11);
        v[i] = std::abs(hump) + 0.25 * dist(rng);
    }
    return v;
}

core::RangeProfile make_profile(std::vector<double> re, std::vector<double> im) {
    core::RangeProfile profile;
    profile.usable_bins = re.size();
    profile.re = std::move(re);
    profile.im = std::move(im);
    return profile;
}

// ---------------------------------------------------------------------------
// Background subtraction (core::BackgroundSubtractor)
// ---------------------------------------------------------------------------

TEST(DiffMagnitude, MatchesReferenceAndUpdatesHistory) {
    for (const std::size_t n : kPlaneSizes) {
        if (n == 0) continue;
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto prev = make_profile(random_plane(n, 37u + static_cast<unsigned>(n)),
                                       random_plane(n, 53u + static_cast<unsigned>(n)));
        const auto cur = make_profile(random_plane(n, 11u + static_cast<unsigned>(n)),
                                      random_plane(n, 23u + static_cast<unsigned>(n)));
        core::BackgroundSubtractor subtractor(n);
        std::vector<double> out(n, -1.0);
        subtractor.subtract_into(prev, out);
        EXPECT_TRUE(out.empty());  // first frame only primes the history

        subtractor.subtract_into(cur, out);
        ASSERT_EQ(out.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            const double dr = cur.re[i] - prev.re[i];
            const double di = cur.im[i] - prev.im[i];
            EXPECT_EQ(out[i], std::sqrt(dr * dr + di * di)) << i;
        }
        // History update: the stored frame is now `cur`, so differencing it
        // against itself is exactly zero everywhere.
        subtractor.subtract_into(cur, out, false);
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], 0.0) << i;
    }
}

TEST(DiffMagnitude, ReadOnlyPathMatchesAndKeepsHistory) {
    for (const std::size_t n : kPlaneSizes) {
        if (n == 0) continue;
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto prev = make_profile(random_plane(n, 107u + static_cast<unsigned>(n)),
                                       random_plane(n, 109u + static_cast<unsigned>(n)));
        const auto cur = make_profile(random_plane(n, 101u + static_cast<unsigned>(n)),
                                      random_plane(n, 103u + static_cast<unsigned>(n)));
        core::BackgroundSubtractor read_only(n), updating(n);
        std::vector<double> out, ref;
        read_only.subtract_into(prev, out);
        updating.subtract_into(prev, ref);

        read_only.subtract_into(cur, out, false);
        updating.subtract_into(cur, ref);
        EXPECT_EQ(out, ref);  // same magnitudes bit for bit
        // ...but the read-only subtractor still holds `prev`.
        read_only.subtract_into(prev, out, false);
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], 0.0) << i;
    }
}

TEST(MagnitudeContract, WithinRelativeErrorBudgetOfStdAbs) {
    // The contract replaces std::abs(cplx) (glibc hypot, <= 1 ulp) with
    // sqrt(re^2 + im^2): three correctly-rounded operations, so the result
    // sits within ~2.5 ulp of the exact magnitude. Gate it with an explicit
    // relative-error budget against std::abs.
    constexpr double kBudget = 4.0 * std::numeric_limits<double>::epsilon();
    const std::size_t n = 4096;
    const auto cur = make_profile(random_plane(n, 2024), random_plane(n, 2025));
    core::BackgroundSubtractor subtractor(n);
    std::vector<double> out;
    subtractor.subtract_into(make_profile(std::vector<double>(n, 0.0),
                                          std::vector<double>(n, 0.0)),
                             out);
    subtractor.subtract_into(cur, out);
    ASSERT_EQ(out.size(), n);

    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double exact = std::abs(std::complex<double>(cur.re[i], cur.im[i]));
        if (exact == 0.0) {
            EXPECT_EQ(out[i], 0.0);
            continue;
        }
        worst = std::max(worst, std::abs(out[i] - exact) / exact);
    }
    EXPECT_LE(worst, kBudget) << "sqrt(re^2+im^2) drifted past the budget";
}

// ---------------------------------------------------------------------------
// Contour reductions (dsp::extent_moments, dsp::max_bin)
// ---------------------------------------------------------------------------

TEST(ExtentMoments, MatchesMaskedScalarLoop) {
    const double bin_m = 0.0375;
    for (const std::size_t n : kPlaneSizes) {
        if (n == 0) continue;
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto v = random_profile(n, 301u + static_cast<unsigned>(n));
        const double threshold = 0.4;
        const std::size_t lo = n / 5;
        const std::size_t hi = n - n / 7;

        const auto m = extent_moments(v.data(), lo, hi, threshold, bin_m);

        Moments ref;
        for (std::size_t i = lo; i < hi; ++i) {
            if (v[i] < threshold) continue;
            const double w = v[i] * v[i];
            const double d = static_cast<double>(i) * bin_m;
            ref.w_sum += w;
            ref.m1 += w * d;
            ref.m2 += w * d * d;
        }
        // The fixed 4-slot accumulation differs from the linear loop only
        // in summation order; tolerance covers that.
        EXPECT_NEAR(m.w_sum, ref.w_sum, 1e-12 * (1.0 + std::abs(ref.w_sum)));
        EXPECT_NEAR(m.m1, ref.m1, 1e-12 * (1.0 + std::abs(ref.m1)));
        EXPECT_NEAR(m.m2, ref.m2, 1e-12 * (1.0 + std::abs(ref.m2)));
    }
}

TEST(ExtentMoments, NanIsIncludedLikeTheScalarContinue) {
    // Exclusion is `v < t`: an unordered compare is false, so NaN elements
    // are *included* (the downstream extent math then propagates the NaN).
    std::vector<double> v = {0.1, std::numeric_limits<double>::quiet_NaN(), 0.9, 0.8};
    const auto m = extent_moments(v.data(), 0, v.size(), 0.5, 1.0);
    EXPECT_TRUE(std::isnan(m.w_sum));
}

TEST(ExtentMoments, EmptyRangeIsZero) {
    const double x = 1.0;
    const auto m = extent_moments(&x, 0, 0, 0.0, 1.0);
    EXPECT_EQ(m.w_sum, 0.0);
    EXPECT_EQ(m.m1, 0.0);
    EXPECT_EQ(m.m2, 0.0);
}

TEST(MaxBin, FirstIndexOfMaximum) {
    for (const std::size_t n : kPlaneSizes) {
        SCOPED_TRACE("n=" + std::to_string(n));
        if (n == 0) {
            const double x = 0.0;
            EXPECT_EQ(max_bin(&x, 0), 0u);
            continue;
        }
        auto v = random_profile(n, 401u + static_cast<unsigned>(n));
        std::size_t ref = 0;
        for (std::size_t i = 1; i < n; ++i)
            if (v[i] > v[ref]) ref = i;
        EXPECT_EQ(max_bin(v.data(), n), ref);
    }
}

TEST(MaxBin, TiesKeepTheFirstIndex) {
    std::vector<double> v = {1.0, 3.0, 2.0, 3.0, 3.0, 0.5, 3.0, 1.0, 2.0};
    EXPECT_EQ(max_bin(v.data(), v.size()), 1u);
}

TEST(MaxBin, AllNanBandIsIndexZero) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> v(6, nan);
    EXPECT_EQ(max_bin(v.data(), v.size()), 0u);
}

// ---------------------------------------------------------------------------
// Peak predicate (dsp::find_peaks_window)
// ---------------------------------------------------------------------------

TEST(PeakCandidates, MatchesThePredicate) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<Peak> out;
    for (const std::size_t n : kPlaneSizes) {
        SCOPED_TRACE("n=" + std::to_string(n));
        auto v = random_profile(n, 501u + static_cast<unsigned>(n));
        // Every compare with NaN is false: NaN is never a candidate, and
        // neither is a sample on either side of it.
        if (n > 6) v[n / 2] = nan;
        const double threshold = 0.5;
        find_peaks_window(v.data(), 0, n, threshold, 1, out);

        std::vector<std::size_t> ref;
        for (std::size_t i = 1; i + 1 < n; ++i)
            if (!(v[i] < threshold) && v[i] > v[i - 1] && v[i] >= v[i + 1])
                ref.push_back(i);
        ASSERT_EQ(out.size(), ref.size());
        for (std::size_t k = 0; k < ref.size(); ++k) {
            EXPECT_EQ(out[k].bin, ref[k]);
            EXPECT_FALSE(std::isnan(out[k].value));
        }
    }
}

// ---------------------------------------------------------------------------
// Windowed peak helpers and the nth_element noise floor
// ---------------------------------------------------------------------------

TEST(FindPeaksWindow, EquivalentToFindPeaksOnCopiedBand) {
    const auto profile = random_profile(512, 701);
    std::vector<Peak> out;
    for (const std::size_t min_sep : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
        for (const auto& [lo, hi] : std::vector<std::pair<std::size_t, std::size_t>>{
                 {0, 512}, {17, 300}, {100, 103}, {0, 2}, {5, 5}}) {
            SCOPED_TRACE("lo=" + std::to_string(lo) + " hi=" + std::to_string(hi) +
                         " sep=" + std::to_string(min_sep));
            const std::vector<double> band(profile.begin() + static_cast<std::ptrdiff_t>(lo),
                                           profile.begin() + static_cast<std::ptrdiff_t>(hi));
            const auto ref = find_peaks(band, 0.5, min_sep);

            find_peaks_window(profile.data(), lo, hi, 0.5, min_sep, out);
            ASSERT_EQ(out.size(), ref.size());
            for (std::size_t i = 0; i < ref.size(); ++i) {
                EXPECT_EQ(out[i].bin, ref[i].bin + lo);
                EXPECT_EQ(out[i].value, ref[i].value);
                EXPECT_EQ(out[i].interpolated,
                          ref[i].interpolated + static_cast<double>(lo));
            }
        }
    }
}

TEST(ParabolicPeakWindow, EquivalentToCopiedBand) {
    const auto profile = random_profile(128, 801);
    const std::size_t lo = 20, hi = 90;
    const std::vector<double> band(profile.begin() + lo, profile.begin() + hi);
    for (std::size_t bin = lo; bin < hi; ++bin) {
        const double ref = parabolic_peak_position(band, bin - lo);
        EXPECT_EQ(parabolic_peak_position_window(profile.data(), lo, hi, bin),
                  ref + static_cast<double>(lo))
            << bin;
    }
}

TEST(NoiseFloorInplace, BitIdenticalToSortingFloor) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                std::size_t{100}, std::size_t{1023}}) {
        for (const double pct : {5.0, 50.0, 75.0, 95.0, 100.0}) {
            SCOPED_TRACE("n=" + std::to_string(n) + " pct=" + std::to_string(pct));
            const auto values = random_profile(n, 901u + static_cast<unsigned>(n));
            auto scratch = values;
            EXPECT_EQ(noise_floor_inplace(scratch, pct), noise_floor(values, pct));
        }
    }
}

}  // namespace
}  // namespace witrack::dsp
