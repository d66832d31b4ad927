// Unit tests for the DSP toolbox: the Hann window, statistics, peak finding,
// the high-pass filter, Kalman filters and robust regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "dsp/filter.hpp"
#include "dsp/kalman.hpp"
#include "dsp/linalg.hpp"
#include "dsp/peaks.hpp"
#include "dsp/regression.hpp"
#include "dsp/stats.hpp"
#include "dsp/window.hpp"

namespace witrack::dsp {
namespace {

// ---------------------------------------------------------------- windows

TEST(Windows, HannSymmetricBoundedAndPeaksAtCenter) {
    const auto w = hann_window(101);
    ASSERT_EQ(w.size(), 101u);
    for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
        EXPECT_GE(w[i], 0.0);
        EXPECT_LE(w[i], w[50]);
    }
    EXPECT_DOUBLE_EQ(w[50], 1.0);
}

TEST(Windows, HannEndpointsAreZero) {
    const auto w = hann_window(64);
    EXPECT_NEAR(w.front(), 0.0, 1e-12);
    EXPECT_NEAR(w.back(), 0.0, 1e-12);
}

TEST(Windows, HannDegenerateLengths) {
    EXPECT_THROW(hann_window(0), std::invalid_argument);
    EXPECT_EQ(hann_window(1), std::vector<double>{1.0});
}

TEST(Windows, GainIsCoefficientSum) {
    const auto w = hann_window(10);
    double sum = 0.0;
    for (double v : w) sum += v;
    EXPECT_DOUBLE_EQ(window_gain(w), sum);
}

// ------------------------------------------------------------- statistics

TEST(Stats, BasicMoments) {
    const std::vector<double> v{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(mean(v), 3.0);
    EXPECT_DOUBLE_EQ(variance(v), 2.0);
    EXPECT_DOUBLE_EQ(stddev(v), std::sqrt(2.0));
    EXPECT_DOUBLE_EQ(min_value(v), 1.0);
    EXPECT_DOUBLE_EQ(max_value(v), 5.0);
}

TEST(Stats, EmptyInputsThrow) {
    EXPECT_THROW(mean({}), std::invalid_argument);
    EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
    EXPECT_THROW(EmpiricalCdf({}), std::invalid_argument);
}

TEST(Stats, PercentileInterpolation) {
    const std::vector<double> v{0, 10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 20.0);
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 12.5), 5.0);
}

TEST(Stats, SortedAndSelectionPercentilesMatchASortBitForBit) {
    // percentile() selects instead of sorting; percentile_sorted() reads a
    // sorted window. Both must return exactly the sort-then-interpolate
    // value, ties included.
    std::mt19937 rng(23);
    for (std::size_t n = 1; n <= 64; ++n) {
        std::vector<double> v(n);
        for (auto& x : v) x = static_cast<double>(rng() % 16) * 0.37 + 0.1;
        std::vector<double> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        for (const double p : {0.0, 12.5, 25.0, 33.3, 50.0, 75.0, 90.0, 100.0}) {
            const double rank = p / 100.0 * static_cast<double>(n - 1);
            const auto lo = static_cast<std::size_t>(rank);
            const std::size_t hi = std::min(lo + 1, n - 1);
            const double frac = rank - static_cast<double>(lo);
            const double want = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
            EXPECT_EQ(percentile(v, p), want) << n << " samples, p " << p;
            EXPECT_EQ(percentile_sorted(sorted, p), want) << n << " samples, p " << p;
            std::vector<double> scratch = v;
            EXPECT_EQ(percentile_in_place(scratch, p), want) << n << " samples, p " << p;
        }
    }
    std::vector<double> empty;
    EXPECT_THROW(percentile_sorted(empty, 50.0), std::invalid_argument);
    EXPECT_THROW(percentile_in_place(empty, 50.0), std::invalid_argument);
}

TEST(Stats, MedianUnsortedInput) {
    EXPECT_DOUBLE_EQ(median({9, 1, 5}), 5.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, CdfFractionAndInverseAgree) {
    std::vector<double> samples;
    for (int i = 0; i < 1000; ++i) samples.push_back(static_cast<double>(i));
    EmpiricalCdf cdf(samples);
    EXPECT_NEAR(cdf.median(), 499.5, 1.0);
    EXPECT_NEAR(cdf.percentile(90.0), 899.1, 1.5);
    EXPECT_NEAR(cdf.fraction_below(cdf.value_at(0.35)), 0.35, 0.01);
}

TEST(Stats, CdfCurveIsMonotone) {
    std::mt19937 rng(2);
    std::normal_distribution<double> dist(0.0, 1.0);
    std::vector<double> samples(500);
    for (auto& s : samples) s = dist(rng);
    EmpiricalCdf cdf(samples);
    const auto curve = cdf.curve(50);
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_LE(curve[i - 1].fraction, curve[i].fraction);
        EXPECT_LT(curve[i - 1].value, curve[i].value);
    }
    EXPECT_NEAR(curve.back().fraction, 1.0, 1e-12);
}

TEST(Stats, RunningStatsMatchesBatch) {
    std::mt19937 rng(7);
    std::normal_distribution<double> dist(3.0, 2.0);
    std::vector<double> samples(2000);
    RunningStats rs;
    for (auto& s : samples) {
        s = dist(rng);
        rs.add(s);
    }
    EXPECT_NEAR(rs.mean(), mean(samples), 1e-9);
    EXPECT_NEAR(rs.variance(), variance(samples), 1e-6);
    rs.reset();
    EXPECT_EQ(rs.count(), 0u);
}

// ------------------------------------------------------------------ peaks

TEST(Peaks, FindsIsolatedMaxima) {
    std::vector<double> v(50, 0.0);
    v[10] = 5.0;
    v[30] = 3.0;
    const auto peaks = find_peaks(v, 1.0);
    ASSERT_EQ(peaks.size(), 2u);
    EXPECT_EQ(peaks[0].bin, 10u);
    EXPECT_EQ(peaks[1].bin, 30u);
    EXPECT_DOUBLE_EQ(peaks[0].value, 5.0);
}

TEST(Peaks, ThresholdSuppressesNoise) {
    std::vector<double> v(50, 0.0);
    v[10] = 5.0;
    v[30] = 0.5;  // below threshold
    const auto peaks = find_peaks(v, 1.0);
    ASSERT_EQ(peaks.size(), 1u);
    EXPECT_EQ(peaks[0].bin, 10u);
}

TEST(Peaks, MinSeparationKeepsClosest) {
    std::vector<double> v(50, 0.0);
    v[10] = 5.0;
    v[12] = 6.0;  // larger but within separation of the first
    const auto peaks = find_peaks(v, 1.0, 5);
    ASSERT_EQ(peaks.size(), 1u);
    EXPECT_EQ(peaks[0].bin, 10u);  // bottom-contour semantics keep the closer
}

TEST(Peaks, ParabolicInterpolationRecoversSubBinShift) {
    // Sample a Gaussian pulse centred between bins; the log-magnitude is a
    // parabola, so a quadratic fit on a narrow pulse is near-exact.
    std::vector<double> v(32, 0.0);
    const double center = 16.3;
    for (std::size_t i = 0; i < v.size(); ++i) {
        const double d = static_cast<double>(i) - center;
        v[i] = std::exp(-d * d / 4.0);
    }
    const auto peaks = find_peaks(v, 0.1);
    ASSERT_EQ(peaks.size(), 1u);
    EXPECT_NEAR(peaks[0].interpolated, center, 0.05);
}

TEST(Peaks, EdgeBinsFallBackToInteger) {
    std::vector<double> v{5.0, 1.0, 0.0};
    EXPECT_DOUBLE_EQ(parabolic_peak_position(v, 0), 0.0);
    EXPECT_DOUBLE_EQ(parabolic_peak_position(v, 2), 2.0);
}

TEST(Peaks, NoiseFloorIsMedianByDefault) {
    std::vector<double> v{1, 1, 1, 1, 100};
    EXPECT_DOUBLE_EQ(noise_floor(v), 1.0);
    EXPECT_THROW(noise_floor({}), std::invalid_argument);
}

// ---------------------------------------------------------------- filters

TEST(Filter, HighPassBlocksDcPassesHighFrequency) {
    OnePoleHighPass hp(1000.0, 1e6);
    // DC
    double dc_out = 0.0;
    for (int i = 0; i < 5000; ++i) dc_out = hp.process(1.0);
    EXPECT_NEAR(dc_out, 0.0, 1e-2);
    // 100 kHz tone, well above cutoff
    hp.reset();
    double peak = 0.0;
    for (int i = 0; i < 2000; ++i) {
        const double x = std::sin(2.0 * M_PI * 1e5 * i / 1e6);
        peak = std::max(peak, std::abs(hp.process(x)));
    }
    EXPECT_GT(peak, 0.9);
}

TEST(Filter, HighPassRejectsBadConfig) {
    EXPECT_THROW(OnePoleHighPass(0.0, 1e6), std::invalid_argument);
    EXPECT_THROW(OnePoleHighPass(6e5, 1e6), std::invalid_argument);
}

// ----------------------------------------------------------------- linalg

TEST(Linalg, IdentityAndMultiply) {
    auto eye = Matrix<3, 3>::identity();
    Matrix<3, 3> m;
    m(0, 0) = 2;
    m(1, 2) = 5;
    m(2, 1) = -1;
    const auto prod = eye * m;
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(prod(r, c), m(r, c));
}

TEST(Linalg, InverseRecoversIdentity) {
    Matrix<3, 3> m;
    m(0, 0) = 4;  m(0, 1) = 7;  m(0, 2) = 2;
    m(1, 0) = 3;  m(1, 1) = 6;  m(1, 2) = 1;
    m(2, 0) = 2;  m(2, 1) = 5;  m(2, 2) = 3;
    const auto prod = m * m.inverse();
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-10);
}

TEST(Linalg, SingularMatrixThrows) {
    Matrix<2, 2> m;
    m(0, 0) = 1;
    m(0, 1) = 2;
    m(1, 0) = 2;
    m(1, 1) = 4;
    EXPECT_THROW(m.inverse(), std::runtime_error);
}

TEST(Linalg, SolveLinearSystem) {
    Matrix<2, 2> a;
    a(0, 0) = 3;  a(0, 1) = 1;
    a(1, 0) = 1;  a(1, 1) = 2;
    Vector<2> b;
    b(0, 0) = 9;
    b(1, 0) = 8;
    const auto x = solve(a, b);
    EXPECT_NEAR(x(0, 0), 2.0, 1e-12);
    EXPECT_NEAR(x(1, 0), 3.0, 1e-12);
}

// ----------------------------------------------------------------- kalman

TEST(Kalman, InitializesToFirstMeasurement) {
    ScalarKalman kf(1.0, 0.1);
    EXPECT_FALSE(kf.initialized());
    EXPECT_DOUBLE_EQ(kf.update(5.0, 0.0125), 5.0);
    EXPECT_TRUE(kf.initialized());
}

TEST(Kalman, ConvergesToConstantValue) {
    ScalarKalman kf(0.5, 0.2);
    std::mt19937 rng(4);
    std::normal_distribution<double> noise(0.0, 0.2);
    double out = 0.0;
    for (int i = 0; i < 400; ++i) out = kf.update(3.0 + noise(rng), 0.0125);
    EXPECT_NEAR(out, 3.0, 0.08);
    EXPECT_NEAR(kf.rate(), 0.0, 0.2);
}

TEST(Kalman, TracksConstantVelocity) {
    ScalarKalman kf(2.0, 0.05);
    const double dt = 0.0125;
    double t = 0.0;
    double out = 0.0;
    for (int i = 0; i < 800; ++i) {
        t += dt;
        out = kf.update(1.0 + 0.8 * t, dt);
    }
    EXPECT_NEAR(out, 1.0 + 0.8 * t, 0.05);
    EXPECT_NEAR(kf.rate(), 0.8, 0.1);
}

TEST(Kalman, SmoothsNoise) {
    // Variance of the filtered output must be well below the raw noise.
    ScalarKalman kf(0.5, 0.3);
    std::mt19937 rng(11);
    std::normal_distribution<double> noise(0.0, 0.3);
    RunningStats raw, filtered;
    for (int i = 0; i < 2000; ++i) {
        const double m = 2.0 + noise(rng);
        const double f = kf.update(m, 0.0125);
        if (i > 100) {  // after convergence
            raw.add(m);
            filtered.add(f);
        }
    }
    EXPECT_LT(filtered.variance(), raw.variance() / 4.0);
}

TEST(Kalman, PredictOnlyExtrapolates) {
    ScalarKalman kf(1.0, 0.05);
    const double dt = 0.0125;
    for (int i = 0; i < 400; ++i)
        kf.update(static_cast<double>(i) * dt * 1.0, dt);  // 1 m/s ramp
    const double last = kf.value();
    const double predicted = kf.predict_only(1.0);
    EXPECT_NEAR(predicted - last, 1.0, 0.15);
}

TEST(Kalman, RejectsNonPositiveNoise) {
    EXPECT_THROW(ScalarKalman(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(PositionKalman(1.0, 0.0), std::invalid_argument);
}

TEST(Kalman, PositionFilterTracks3dLine) {
    PositionKalman kf(2.0, 0.05);
    const double dt = 0.0125;
    std::mt19937 rng(5);
    std::normal_distribution<double> noise(0.0, 0.05);
    PositionKalman::Position out{};
    double t = 0.0;
    for (int i = 0; i < 800; ++i) {
        t += dt;
        out = kf.update({1.0 + 0.5 * t + noise(rng), 2.0 - 0.3 * t + noise(rng),
                         1.0 + noise(rng)},
                        dt);
    }
    EXPECT_NEAR(out.x, 1.0 + 0.5 * t, 0.08);
    EXPECT_NEAR(out.y, 2.0 - 0.3 * t, 0.08);
    EXPECT_NEAR(out.z, 1.0, 0.08);
    EXPECT_NEAR(kf.velocity().x, 0.5, 0.1);
    EXPECT_NEAR(kf.velocity().z, 0.0, 0.1);
}

// ------------------------------------------------------------- regression

TEST(Regression, OlsExactOnLine) {
    std::vector<double> x, y;
    for (int i = 0; i < 20; ++i) {
        x.push_back(i);
        y.push_back(2.5 * i - 1.0);
    }
    const auto fit = fit_ols(x, y);
    ASSERT_TRUE(fit.valid);
    EXPECT_NEAR(fit.slope, 2.5, 1e-10);
    EXPECT_NEAR(fit.intercept, -1.0, 1e-9);
}

TEST(Regression, DegenerateInputsInvalid) {
    EXPECT_FALSE(fit_ols({1.0}, {2.0}).valid);
    EXPECT_FALSE(fit_ols({2.0, 2.0, 2.0}, {1.0, 2.0, 3.0}).valid);  // vertical
    EXPECT_THROW(fit_ols({1.0, 2.0}, {1.0}), std::invalid_argument);
}

TEST(Regression, HuberResistsOutliers) {
    std::vector<double> x, y;
    std::mt19937 rng(8);
    std::normal_distribution<double> noise(0.0, 0.05);
    for (int i = 0; i < 40; ++i) {
        x.push_back(0.1 * i);
        y.push_back(-0.8 * 0.1 * i + 2.0 + noise(rng));
    }
    y[10] += 50.0;
    const auto fit = fit_huber(x, y);
    ASSERT_TRUE(fit.valid);
    EXPECT_NEAR(fit.slope, -0.8, 0.05);
    EXPECT_NEAR(fit.intercept, 2.0, 0.1);
}

TEST(Regression, HuberRejectsBadDelta) {
    EXPECT_THROW(fit_huber({1, 2, 3}, {1, 2, 3}, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace witrack::dsp
