// FFT engine tests: correctness against analytic DFTs, algebraic properties
// (linearity, Parseval), cross-checks between the radix-4 kernel and
// Bluestein paths, the paper's sweep-sized transform (N = 2500), the pruned
// (zero-padded-input) kernels, the r2c half-spectrum plans, and the shared
// FftPlanCache (pointer identity, shape-keyed pruned entries, cache-built ==
// privately-built plans).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/fft_plan_cache.hpp"
#include "dsp/simd.hpp"

namespace witrack::dsp {
namespace {

std::vector<cplx> naive_dft(const std::vector<cplx>& in) {
    const std::size_t n = in.size();
    std::vector<cplx> out(n);
    for (std::size_t k = 0; k < n; ++k) {
        cplx acc{0.0, 0.0};
        for (std::size_t t = 0; t < n; ++t) {
            const double angle = -2.0 * M_PI * static_cast<double>(k * t) / n;
            acc += in[t] * cplx(std::cos(angle), std::sin(angle));
        }
        out[k] = acc;
    }
    return out;
}

std::vector<cplx> random_signal(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::normal_distribution<double> dist;
    std::vector<cplx> v(n);
    for (auto& x : v) x = cplx(dist(rng), dist(rng));
    return v;
}

double max_error(const std::vector<cplx>& a, const std::vector<cplx>& b) {
    double err = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) err = std::max(err, std::abs(a[i] - b[i]));
    return err;
}

TEST(Fft, RejectsZeroSize) { EXPECT_THROW(Fft(0), std::invalid_argument); }

TEST(Fft, ImpulseHasFlatSpectrum) {
    std::vector<cplx> data(64, cplx(0, 0));
    data[0] = cplx(1, 0);
    fft_plan(64).forward(data);
    for (const auto& v : data) EXPECT_NEAR(std::abs(v - cplx(1, 0)), 0.0, 1e-12);
}

TEST(Fft, SingleToneLandsInOneBin) {
    const std::size_t n = 256;
    const std::size_t tone = 37;
    std::vector<cplx> data(n);
    for (std::size_t t = 0; t < n; ++t) {
        const double angle = 2.0 * M_PI * static_cast<double>(tone * t) / n;
        data[t] = cplx(std::cos(angle), std::sin(angle));
    }
    fft_plan(n).forward(data);
    for (std::size_t k = 0; k < n; ++k) {
        if (k == tone)
            EXPECT_NEAR(std::abs(data[k]), static_cast<double>(n), 1e-8);
        else
            EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-7);
    }
}

TEST(Fft, RealInputHasConjugateSymmetry) {
    std::vector<double> x(128);
    std::mt19937 rng(3);
    std::normal_distribution<double> dist;
    for (auto& v : x) v = dist(rng);
    std::vector<cplx> spec(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) spec[i] = cplx(x[i], 0.0);
    fft_plan(x.size()).forward(spec);
    for (std::size_t k = 1; k < x.size(); ++k) {
        EXPECT_NEAR(spec[k].real(), spec[x.size() - k].real(), 1e-9);
        EXPECT_NEAR(spec[k].imag(), -spec[x.size() - k].imag(), 1e-9);
    }
}

struct FftSizeCase {
    std::size_t n;
};

class FftSizes : public ::testing::TestWithParam<FftSizeCase> {};

TEST_P(FftSizes, MatchesNaiveDft) {
    const std::size_t n = GetParam().n;
    const auto in = random_signal(n, static_cast<unsigned>(n));
    auto fast = in;
    fft_plan(n).forward(fast);
    const auto slow = naive_dft(in);
    EXPECT_LT(max_error(fast, slow), 1e-6 * static_cast<double>(n));
}

TEST_P(FftSizes, InverseRoundTrips) {
    const std::size_t n = GetParam().n;
    const auto in = random_signal(n, static_cast<unsigned>(n) + 1);
    auto data = in;
    const Fft& plan = fft_plan(n);
    plan.forward(data);
    plan.inverse(data);
    EXPECT_LT(max_error(data, in), 1e-9 * static_cast<double>(n));
}

TEST_P(FftSizes, ParsevalEnergyConservation) {
    const std::size_t n = GetParam().n;
    const auto in = random_signal(n, static_cast<unsigned>(n) + 2);
    double time_energy = 0.0;
    for (const auto& v : in) time_energy += std::norm(v);
    auto spec = in;
    fft_plan(n).forward(spec);
    double freq_energy = 0.0;
    for (const auto& v : spec) freq_energy += std::norm(v);
    EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
                1e-8 * std::max(1.0, time_energy));
}

TEST_P(FftSizes, Linearity) {
    const std::size_t n = GetParam().n;
    const auto a = random_signal(n, 10);
    const auto b = random_signal(n, 11);
    const cplx ca(1.5, -0.25), cb(-2.0, 0.5);
    std::vector<cplx> combo(n);
    for (std::size_t i = 0; i < n; ++i) combo[i] = ca * a[i] + cb * b[i];
    auto fa = a, fb = b;
    const Fft& plan = fft_plan(n);
    plan.forward(fa);
    plan.forward(fb);
    plan.forward(combo);
    std::vector<cplx> expected(n);
    for (std::size_t i = 0; i < n; ++i) expected[i] = ca * fa[i] + cb * fb[i];
    EXPECT_LT(max_error(combo, expected), 1e-7 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(
    PowerOfTwoAndArbitrary, FftSizes,
    ::testing::Values(FftSizeCase{2}, FftSizeCase{4}, FftSizeCase{16},
                      FftSizeCase{64}, FftSizeCase{256}, FftSizeCase{1024},
                      FftSizeCase{2048}, FftSizeCase{4096},
                      FftSizeCase{3}, FftSizeCase{5}, FftSizeCase{12},
                      FftSizeCase{100}, FftSizeCase{625}, FftSizeCase{2500}),
    [](const ::testing::TestParamInfo<FftSizeCase>& info) {
        return "N" + std::to_string(info.param.n);
    });

TEST(Fft, SweepSizedTransformMatchesBluesteinDefinition) {
    // N = 2500 is the production size (2.5 ms at 1 MS/s). Verify a known
    // tone at a non-integer-power position.
    const std::size_t n = 2500;
    const std::size_t tone = 123;
    std::vector<cplx> data(n);
    for (std::size_t t = 0; t < n; ++t) {
        const double angle = 2.0 * M_PI * static_cast<double>(tone * t) / n;
        data[t] = cplx(std::cos(angle), std::sin(angle));
    }
    fft_plan(n).forward(data);
    EXPECT_NEAR(std::abs(data[tone]), static_cast<double>(n), 1e-5);
    double off_peak = 0.0;
    for (std::size_t k = 0; k < n; ++k)
        if (k != tone) off_peak = std::max(off_peak, std::abs(data[k]));
    EXPECT_LT(off_peak, 1e-5);
}

TEST(Fft, PlanCacheReturnsSameInstance) {
    const Fft& a = fft_plan(512);
    const Fft& b = fft_plan(512);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.size(), 512u);
}

TEST(FftPlanCacheSuite, SharesOnePlanPerSizeAndKind) {
    FftPlanCache cache;
    const auto complex_a = cache.complex_plan(640);
    const auto complex_b = cache.complex_plan(640);
    EXPECT_EQ(complex_a.get(), complex_b.get());
    const auto real_a = cache.real_plan(640);
    const auto real_b = cache.real_plan(640);
    EXPECT_EQ(real_a.get(), real_b.get());
    // Distinct sizes and distinct caches give distinct plans.
    EXPECT_NE(cache.complex_plan(320).get(), complex_a.get());
    FftPlanCache other;
    EXPECT_NE(other.complex_plan(640).get(), complex_a.get());
    // The real(640) plan's internal half plan is the cached complex(320),
    // so the cache holds exactly complex{640, 320} + real{640}.
    EXPECT_EQ(cache.cached_plans(), 3u);
}

TEST(FftPlanCacheSuite, CacheBuiltPlansMatchPrivateOnesBitForBit) {
    // A cache-built RealFft (shared internal half plan) must transform
    // exactly like a privately-built one: sharing is memoization, not a
    // different algorithm. N = 2500 is the production sweep size.
    FftPlanCache cache;
    const auto shared_plan = cache.real_plan(2500);
    const RealFft private_plan(2500);

    std::vector<double> x(2500);
    std::mt19937 rng(77);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (auto& v : x) v = dist(rng);

    FftScratch scratch_a, scratch_b;
    std::vector<cplx> out_a, out_b;
    shared_plan->forward(x, out_a, scratch_a);
    private_plan.forward(x, out_b, scratch_b);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t k = 0; k < out_a.size(); ++k) {
        EXPECT_EQ(out_a[k].real(), out_b[k].real());
        EXPECT_EQ(out_a[k].imag(), out_b[k].imag());
    }
}

TEST(FftPlanCacheSuite, ConcurrentFirstRequestsConvergeOnOnePlan) {
    FftPlanCache cache;
    constexpr std::size_t kThreads = 8;
    std::vector<std::shared_ptr<const RealFft>> seen(kThreads);
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (std::size_t t = 0; t < kThreads; ++t)
            threads.emplace_back(
                [&cache, &seen, t] { seen[t] = cache.real_plan(1250); });
        for (auto& thread : threads) thread.join();
    }
    // Losers of the build race may briefly have held a duplicate, but every
    // caller must have been handed the one cached instance.
    for (std::size_t t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[0].get(), seen[t].get());
}

TEST(Fft, RealHalfSpectrumMatchesComplexPath) {
    std::vector<double> x(100);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = std::sin(0.37 * static_cast<double>(i)) + 0.2;
    RealFft rfft(x.size());
    FftScratch scratch;
    std::vector<cplx> via_real;
    rfft.forward(x, via_real, scratch);
    std::vector<cplx> via_complex(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) via_complex[i] = cplx(x[i], 0.0);
    fft_plan(x.size()).forward(via_complex);
    ASSERT_EQ(via_real.size(), x.size() / 2 + 1);
    for (std::size_t k = 0; k < via_real.size(); ++k)
        EXPECT_LT(std::abs(via_real[k] - via_complex[k]), 1e-9) << "k=" << k;
}

// ------------------------------------------------------- pruned kernels

struct PrunedCase {
    std::size_t n;        ///< transform size (power of two)
    std::size_t nonzero;  ///< live input prefix; [nonzero, n) is zero
};

class PrunedShapes : public ::testing::TestWithParam<PrunedCase> {};

TEST_P(PrunedShapes, PrunedMatchesNaiveDft) {
    const auto [n, nz] = GetParam();
    auto in = random_signal(nz, static_cast<unsigned>(n + nz));
    in.resize(n, cplx(0.0, 0.0));  // explicit zero pad for the reference
    const Fft pruned(n, nz);
    EXPECT_EQ(pruned.n_nonzero(), nz);
    auto fast = in;
    pruned.forward(fast);
    EXPECT_LT(max_error(fast, naive_dft(in)), 1e-6 * static_cast<double>(n));
}

TEST_P(PrunedShapes, PrunedEqualsDenseAtIdenticalShape) {
    // Skipping structurally-zero butterflies must not change the result:
    // every output of the pruned schedule equals the dense one under
    // operator== (a skipped multiply may flip the sign of an exact zero,
    // which IEEE-754 equality deliberately ignores).
    const auto [n, nz] = GetParam();
    auto in = random_signal(nz, static_cast<unsigned>(2 * n + nz));
    in.resize(n, cplx(0.0, 0.0));
    auto dense_out = in;
    fft_plan(n).forward(dense_out);
    auto pruned_out = in;
    Fft(n, nz).forward(pruned_out);
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(pruned_out[k].real(), dense_out[k].real()) << "k=" << k;
        EXPECT_EQ(pruned_out[k].imag(), dense_out[k].imag()) << "k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ZeroPaddedShapes, PrunedShapes,
    ::testing::Values(PrunedCase{64, 40}, PrunedCase{256, 17},
                      PrunedCase{2048, 1250},  // packed half of the sweep
                      PrunedCase{4096, 2500},  // production zero-pad shape
                      PrunedCase{8192, 2500},  // Bluestein convolution shape
                      PrunedCase{4096, 1}, PrunedCase{4096, 4095}),
    [](const ::testing::TestParamInfo<PrunedCase>& info) {
        return "N" + std::to_string(info.param.n) + "nz" +
               std::to_string(info.param.nonzero);
    });

// --------------------------------------------------- r2c half spectrum

struct RealCase {
    std::size_t n;        ///< real transform size
    std::size_t nonzero;  ///< live input samples (0 = dense)
};

class RealShapes : public ::testing::TestWithParam<RealCase> {};

TEST_P(RealShapes, HalfSpectrumMatchesNaiveDft) {
    const auto [n, nz_raw] = GetParam();
    const std::size_t nz = nz_raw == 0 ? n : nz_raw;
    std::mt19937 rng(static_cast<unsigned>(n + 3 * nz));
    std::normal_distribution<double> dist;
    std::vector<double> x(nz);
    for (auto& v : x) v = dist(rng);

    std::vector<cplx> padded(n, cplx(0.0, 0.0));
    for (std::size_t i = 0; i < nz; ++i) padded[i] = cplx(x[i], 0.0);
    const auto reference = naive_dft(padded);

    RealFft rfft(n, nz_raw);
    EXPECT_EQ(rfft.n_nonzero(), nz);
    EXPECT_EQ(rfft.spectrum_size(), n / 2 + 1);
    FftScratch scratch;
    std::vector<cplx> out;
    rfft.forward(x, out, scratch);
    ASSERT_EQ(out.size(), n / 2 + 1);
    for (std::size_t k = 0; k < out.size(); ++k)
        EXPECT_LT(std::abs(out[k] - reference[k]), 1e-6 * static_cast<double>(n))
            << "k=" << k;
}

TEST_P(RealShapes, WindowedForwardEqualsPremultiplied) {
    const auto [n, nz_raw] = GetParam();
    const std::size_t nz = nz_raw == 0 ? n : nz_raw;
    std::mt19937 rng(static_cast<unsigned>(5 * n + nz));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> x(nz), w(nz), xw(nz);
    for (std::size_t i = 0; i < nz; ++i) {
        x[i] = dist(rng);
        w[i] = 0.5 + 0.5 * dist(rng);
        xw[i] = x[i] * w[i];
    }
    RealFft rfft(n, nz_raw);
    FftScratch sa, sb;
    std::vector<cplx> fused, premultiplied;
    rfft.forward_windowed(x, w, fused, sa);
    rfft.forward(xw, premultiplied, sb);
    ASSERT_EQ(fused.size(), premultiplied.size());
    for (std::size_t k = 0; k < fused.size(); ++k) {
        EXPECT_EQ(fused[k].real(), premultiplied[k].real()) << "k=" << k;
        EXPECT_EQ(fused[k].imag(), premultiplied[k].imag()) << "k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(
    DenseAndPruned, RealShapes,
    ::testing::Values(RealCase{16, 0}, RealCase{64, 0}, RealCase{2048, 0},
                      RealCase{4096, 0},
                      RealCase{250, 0},        // Bluestein half (125 points)
                      RealCase{2500, 0},       // paper-literal sweep size
                      RealCase{17, 0},         // odd-N fallback
                      RealCase{17, 9},         // odd-N fallback, padded
                      RealCase{512, 250},      // pruned: test-sized sweep
                      RealCase{4096, 2500},    // pruned: production shape
                      RealCase{4096, 2501},    // odd live prefix
                      RealCase{1024, 1000}),   // prune beyond half
    [](const ::testing::TestParamInfo<RealCase>& info) {
        return "N" + std::to_string(info.param.n) + "nz" +
               std::to_string(info.param.nonzero);
    });

TEST(RealFftSuite, PrunedEqualsDenseOnPaddedInput) {
    // Same real input, once through the pruned plan (short span) and once
    // through the dense plan (explicitly padded span): equal under ==.
    const std::size_t n = 4096, nz = 2500;
    std::mt19937 rng(11);
    std::normal_distribution<double> dist;
    std::vector<double> x(nz);
    for (auto& v : x) v = dist(rng);
    std::vector<double> padded = x;
    padded.resize(n, 0.0);

    FftScratch sa, sb;
    std::vector<cplx> pruned_out, dense_out;
    RealFft(n, nz).forward(x, pruned_out, sa);
    RealFft(n).forward(padded, dense_out, sb);
    ASSERT_EQ(pruned_out.size(), dense_out.size());
    for (std::size_t k = 0; k < pruned_out.size(); ++k) {
        EXPECT_EQ(pruned_out[k].real(), dense_out[k].real()) << "k=" << k;
        EXPECT_EQ(pruned_out[k].imag(), dense_out[k].imag()) << "k=" << k;
    }
}

TEST(FftPlanCacheSuite, PrunedAndDensePlansAreDistinctSharedEntries) {
    FftPlanCache cache;
    // Pruned and dense complex plans of one size are different schedules,
    // so they are distinct cache entries...
    const auto dense = cache.complex_plan(4096);
    const auto pruned = cache.complex_plan(4096, 2500);
    EXPECT_NE(dense.get(), pruned.get());
    EXPECT_EQ(dense->n_nonzero(), 4096u);
    EXPECT_EQ(pruned->n_nonzero(), 2500u);
    // ...while each shape stays one shared entry across sessions.
    EXPECT_EQ(cache.complex_plan(4096, 2500).get(), pruned.get());
    const auto real_pruned = cache.real_plan(4096, 2500);
    EXPECT_NE(cache.real_plan(4096).get(), real_pruned.get());
    EXPECT_EQ(cache.real_plan(4096, 2500).get(), real_pruned.get());
    // Degenerate pruning requests normalize onto the dense entry...
    EXPECT_EQ(cache.complex_plan(4096, 4096).get(), dense.get());
    EXPECT_EQ(cache.complex_plan(4096, 0).get(), dense.get());
    // ...and non-power-of-two sizes always plan dense.
    EXPECT_EQ(cache.complex_plan(2500, 1000).get(),
              cache.complex_plan(2500).get());
}

// ------------------------------------------------- SIMD dispatch levels

/// RAII: force a kernel dispatch level for one test and restore the ambient
/// level on exit. granted() is the level force() actually activated -- it
/// clamps to detect(), so requesting a level the hardware lacks grants a
/// lower one (the test then skips that level instead of silently retesting
/// a covered one).
class ForcedLevel {
  public:
    explicit ForcedLevel(simd::Level level)
        : previous_(simd::active()), granted_(simd::force(level)) {}
    ~ForcedLevel() { simd::force(previous_); }
    simd::Level granted() const { return granted_; }

  private:
    simd::Level previous_;
    simd::Level granted_;
};

constexpr simd::Level kAllLevels[] = {simd::Level::kScalar, simd::Level::kSse2,
                                      simd::Level::kAvx2};

/// The shapes the production pipeline actually plans (the pruned-kernel
/// suite above), reused by the dispatch-level gates.
constexpr PrunedCase kKernelShapes[] = {{64, 40},     {256, 17},
                                        {2048, 1250}, {4096, 2500},
                                        {8192, 2500}, {4096, 1},
                                        {4096, 4095}, {1024, 1024}};

TEST(SimdDispatch, ForceClampsToHardware) {
    ForcedLevel guard(simd::Level::kAvx2);
    EXPECT_LE(static_cast<int>(guard.granted()), static_cast<int>(simd::detect()));
    EXPECT_EQ(simd::active(), guard.granted());
}

TEST(SimdDispatch, EveryLevelMatchesNaiveDft) {
    // The accuracy gate of the FftSizes/PrunedShapes suites, repeated under
    // every dispatch level this machine supports: no ISA path gets to trade
    // accuracy for speed.
    for (const simd::Level level : kAllLevels) {
        ForcedLevel guard(level);
        if (guard.granted() != level) continue;  // hardware lacks this level
        SCOPED_TRACE(simd::to_string(level));
        for (const auto& [n, nz] : kKernelShapes) {
            SCOPED_TRACE("N" + std::to_string(n) + "nz" + std::to_string(nz));
            auto in = random_signal(nz, static_cast<unsigned>(n + nz));
            in.resize(n, cplx(0.0, 0.0));
            auto fast = in;
            Fft(n, nz).forward(fast);
            EXPECT_LT(max_error(fast, naive_dft(in)), 1e-6 * static_cast<double>(n));
        }
    }
}

TEST(SimdDispatch, AllLevelsBitIdenticalForwardAndInverse) {
    // The lane templates perform the same IEEE-754 operations per element
    // at every width, so scalar / sse2 / avx2 must agree bit for bit --
    // WITRACK_SIMD triage runs and heterogeneous fleets see one answer.
    for (const auto& [n, nz] : kKernelShapes) {
        SCOPED_TRACE("N" + std::to_string(n) + "nz" + std::to_string(nz));
        auto in = random_signal(nz, static_cast<unsigned>(3 * n + nz));
        in.resize(n, cplx(0.0, 0.0));
        const Fft plan(n, nz);

        std::vector<cplx> reference, reference_inv;
        {
            ForcedLevel guard(simd::Level::kScalar);
            ASSERT_EQ(guard.granted(), simd::Level::kScalar);
            reference = in;
            plan.forward(reference);
            reference_inv = reference;
            plan.inverse(reference_inv);
        }
        for (const simd::Level level : {simd::Level::kSse2, simd::Level::kAvx2}) {
            ForcedLevel guard(level);
            if (guard.granted() != level) continue;
            SCOPED_TRACE(simd::to_string(level));
            auto forward = in;
            plan.forward(forward);
            auto inverse = forward;
            plan.inverse(inverse);
            for (std::size_t k = 0; k < n; ++k) {
                ASSERT_EQ(forward[k].real(), reference[k].real()) << "k=" << k;
                ASSERT_EQ(forward[k].imag(), reference[k].imag()) << "k=" << k;
                ASSERT_EQ(inverse[k].real(), reference_inv[k].real()) << "k=" << k;
                ASSERT_EQ(inverse[k].imag(), reference_inv[k].imag()) << "k=" << k;
            }
        }
    }
}

TEST(SimdDispatch, RealWindowedPathBitIdenticalAcrossLevels) {
    // End-to-end r2c hot path (fused window, pruned production shape)
    // across dispatch levels.
    const std::size_t n = 4096, nz = 2500;
    std::mt19937 rng(29);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> x(nz), w(nz);
    for (std::size_t i = 0; i < nz; ++i) {
        x[i] = dist(rng);
        w[i] = 0.5 + 0.5 * dist(rng);
    }
    const RealFft plan(n, nz);
    FftScratch scratch;
    std::vector<cplx> reference;
    {
        ForcedLevel guard(simd::Level::kScalar);
        plan.forward_windowed(x, w, reference, scratch);
    }
    for (const simd::Level level : {simd::Level::kSse2, simd::Level::kAvx2}) {
        ForcedLevel guard(level);
        if (guard.granted() != level) continue;
        SCOPED_TRACE(simd::to_string(level));
        std::vector<cplx> out;
        plan.forward_windowed(x, w, out, scratch);
        ASSERT_EQ(out.size(), reference.size());
        for (std::size_t k = 0; k < out.size(); ++k) {
            ASSERT_EQ(out[k].real(), reference[k].real()) << "k=" << k;
            ASSERT_EQ(out[k].imag(), reference[k].imag()) << "k=" << k;
        }
    }
}

}  // namespace
}  // namespace witrack::dsp
