// Range-transform tests: the radix-4 Pow2Kernel against a direct DFT
// (dense power-of-two sizes and pruned zero-padded shapes, plus linearity
// and Parseval), pruned == dense at one shape, the r2c RealFft at the
// production shape (2500 samples into 4096 points) and at dense
// power-of-two shapes, the fused window, the WITRACK_SIMD rule, and
// bit-identity of the scalar and AVX2 dispatch levels.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdlib>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/fft_kernels.hpp"
#include "dsp/simd.hpp"

#include "forced_level.hpp"

namespace witrack::dsp {
namespace {

using kernels::Pow2Kernel;

/// Direct DFT, X_k = sum_t x_t exp(-2*pi*i*k*t/N), through one twiddle
/// table indexed by k*t mod N (exact index arithmetic, and no libm call in
/// the O(N^2) loop).
std::vector<cplx> naive_dft(const std::vector<cplx>& in) {
    const std::size_t n = in.size();
    std::vector<double> cos_t(n), sin_t(n);
    for (std::size_t j = 0; j < n; ++j) {
        const double angle = 2.0 * M_PI * static_cast<double>(j) / static_cast<double>(n);
        cos_t[j] = std::cos(angle);
        sin_t[j] = std::sin(angle);
    }
    std::vector<cplx> out(n);
    for (std::size_t k = 0; k < n; ++k) {
        double re = 0.0, im = 0.0;
        for (std::size_t t = 0, j = 0; t < n; ++t, j = (j + k) % n) {
            re += in[t].real() * cos_t[j] + in[t].imag() * sin_t[j];
            im += in[t].imag() * cos_t[j] - in[t].real() * sin_t[j];
        }
        out[k] = cplx(re, im);
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

/// Forward transform of `data` (size() of the plan) through a kernel plan.
std::vector<cplx> kernel_forward(const Pow2Kernel& plan, const std::vector<cplx>& data) {
    const std::size_t n = plan.size();
    std::vector<double> re(n), im(n), wr(n), wi(n);
    for (std::size_t k = 0; k < n; ++k) {
        re[k] = data[k].real();
        im[k] = data[k].imag();
    }
    plan.forward(re.data(), im.data(), wr.data(), wi.data());
    std::vector<cplx> out(n);
    for (std::size_t k = 0; k < n; ++k) out[k] = cplx(re[k], im[k]);
    return out;
}

/// Half spectrum of a real sweep through a RealFft plan, as complex bins.
std::vector<cplx> real_forward(const RealFft& plan, const std::vector<double>& x,
                               const std::vector<double>& window,
                               FftScratch& scratch) {
    std::vector<double> re, im;
    plan.forward(x, window, re, im, scratch);
    std::vector<cplx> out(re.size());
    for (std::size_t k = 0; k < re.size(); ++k) out[k] = cplx(re[k], im[k]);
    return out;
}

// ------------------------------------------------------- kernel: dense

TEST(Pow2Kernel, RejectsNonPowerOfTwo) {
    EXPECT_THROW(Pow2Kernel(0), std::invalid_argument);
    EXPECT_THROW(Pow2Kernel(2500), std::invalid_argument);
}

TEST(Pow2Kernel, SingleToneLandsInOneBin) {
    const std::size_t n = 256;
    const std::size_t tone = 37;
    std::vector<cplx> data(n);
    for (std::size_t t = 0; t < n; ++t) {
        const double angle = 2.0 * M_PI * static_cast<double>(tone * t) / n;
        data[t] = cplx(std::cos(angle), std::sin(angle));
    }
    const auto spec = kernel_forward(Pow2Kernel(n), data);
    for (std::size_t k = 0; k < n; ++k) {
        if (k == tone)
            EXPECT_NEAR(std::abs(spec[k]), static_cast<double>(n), 1e-8);
        else
            EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-7);
    }
}

class KernelSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelSizes, MatchesNaiveDft) {
    const std::size_t n = GetParam();
    const auto in = random_signal(n, static_cast<unsigned>(n));
    EXPECT_LT(max_error(kernel_forward(Pow2Kernel(n), in), naive_dft(in)),
              1e-6 * static_cast<double>(n));
}

TEST_P(KernelSizes, ParsevalEnergyConservation) {
    const std::size_t n = GetParam();
    const auto in = random_signal(n, static_cast<unsigned>(n) + 2);
    double time_energy = 0.0;
    for (const auto& v : in) time_energy += std::norm(v);
    double freq_energy = 0.0;
    for (const auto& v : kernel_forward(Pow2Kernel(n), in)) freq_energy += std::norm(v);
    EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
                1e-8 * std::max(1.0, time_energy));
}

TEST_P(KernelSizes, Linearity) {
    const std::size_t n = GetParam();
    const auto a = random_signal(n, 10);
    const auto b = random_signal(n, 11);
    const cplx ca(1.5, -0.25), cb(-2.0, 0.5);
    std::vector<cplx> combo(n);
    for (std::size_t i = 0; i < n; ++i) combo[i] = ca * a[i] + cb * b[i];
    const Pow2Kernel plan(n);
    const auto fa = kernel_forward(plan, a);
    const auto fb = kernel_forward(plan, b);
    std::vector<cplx> expected(n);
    for (std::size_t i = 0; i < n; ++i) expected[i] = ca * fa[i] + cb * fb[i];
    EXPECT_LT(max_error(kernel_forward(plan, combo), expected),
              1e-7 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(PowerOfTwo, KernelSizes,
                         ::testing::Values(2, 4, 16, 64, 256, 1024, 2048, 4096),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                             return "N" + std::to_string(info.param);
                         });

// ------------------------------------------------------- kernel: pruned

struct PrunedCase {
    std::size_t n;        ///< transform size (power of two)
    std::size_t nonzero;  ///< live input prefix; [nonzero, n) is zero
};

class PrunedShapes : public ::testing::TestWithParam<PrunedCase> {};

TEST_P(PrunedShapes, PrunedMatchesNaiveDft) {
    const auto [n, nz] = GetParam();
    auto in = random_signal(nz, static_cast<unsigned>(n + nz));
    in.resize(n, cplx(0.0, 0.0));  // explicit zero pad for the reference
    const Pow2Kernel pruned(n, nz);
    EXPECT_EQ(pruned.n_nonzero(), nz);
    EXPECT_LT(max_error(kernel_forward(pruned, in), naive_dft(in)),
              1e-6 * static_cast<double>(n));
}

TEST_P(PrunedShapes, PrunedEqualsDenseAtIdenticalShape) {
    // Skipping structurally-zero butterflies must not change the result:
    // every output of the pruned schedule equals the dense one under
    // operator== (a skipped multiply may flip the sign of an exact zero,
    // which IEEE-754 equality deliberately ignores).
    const auto [n, nz] = GetParam();
    auto in = random_signal(nz, static_cast<unsigned>(2 * n + nz));
    in.resize(n, cplx(0.0, 0.0));
    const auto dense_out = kernel_forward(Pow2Kernel(n), in);
    const auto pruned_out = kernel_forward(Pow2Kernel(n, nz), in);
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(pruned_out[k].real(), dense_out[k].real()) << "k=" << k;
        EXPECT_EQ(pruned_out[k].imag(), dense_out[k].imag()) << "k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ZeroPaddedShapes, PrunedShapes,
    ::testing::Values(PrunedCase{64, 40}, PrunedCase{256, 17},
                      PrunedCase{2048, 1250},  // packed half of the sweep
                      PrunedCase{4096, 2500},
                      PrunedCase{4096, 1}, PrunedCase{4096, 4095}),
    [](const ::testing::TestParamInfo<PrunedCase>& info) {
        return "N" + std::to_string(info.param.n) + "nz" +
               std::to_string(info.param.nonzero);
    });

// --------------------------------------------------- r2c half spectrum

struct RealCase {
    std::size_t samples;  ///< sweep length the plan is built for
    std::size_t n;        ///< expected transform size
};

class RealShapes : public ::testing::TestWithParam<RealCase> {};

TEST_P(RealShapes, HalfSpectrumMatchesNaiveDft) {
    const auto [nz, n] = GetParam();
    std::mt19937 rng(static_cast<unsigned>(n + 3 * nz));
    std::normal_distribution<double> dist;
    std::vector<double> x(nz);
    for (auto& v : x) v = dist(rng);

    std::vector<cplx> padded(n, cplx(0.0, 0.0));
    for (std::size_t i = 0; i < nz; ++i) padded[i] = cplx(x[i], 0.0);
    const auto reference = naive_dft(padded);

    const RealFft rfft(nz);
    EXPECT_EQ(rfft.size(), n);
    EXPECT_EQ(rfft.n_nonzero(), nz);
    EXPECT_EQ(rfft.spectrum_size(), n / 2 + 1);
    FftScratch scratch;
    const auto out = real_forward(rfft, x, std::vector<double>(nz, 1.0), scratch);
    ASSERT_EQ(out.size(), n / 2 + 1);
    for (std::size_t k = 0; k < out.size(); ++k)
        EXPECT_LT(std::abs(out[k] - reference[k]), 1e-6 * static_cast<double>(n))
            << "k=" << k;
}

TEST_P(RealShapes, WindowedForwardEqualsPremultiplied) {
    const auto [nz, n] = GetParam();
    std::mt19937 rng(static_cast<unsigned>(5 * n + nz));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> x(nz), w(nz), xw(nz);
    for (std::size_t i = 0; i < nz; ++i) {
        x[i] = dist(rng);
        w[i] = 0.5 + 0.5 * dist(rng);
        xw[i] = x[i] * w[i];
    }
    const RealFft rfft(nz);
    FftScratch sa, sb;
    const auto fused = real_forward(rfft, x, w, sa);
    const auto premultiplied =
        real_forward(rfft, xw, std::vector<double>(nz, 1.0), sb);
    ASSERT_EQ(fused.size(), premultiplied.size());
    for (std::size_t k = 0; k < fused.size(); ++k) {
        EXPECT_EQ(fused[k].real(), premultiplied[k].real()) << "k=" << k;
        EXPECT_EQ(fused[k].imag(), premultiplied[k].imag()) << "k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(
    DenseAndPruned, RealShapes,
    ::testing::Values(RealCase{2, 2}, RealCase{16, 16}, RealCase{64, 64},
                      RealCase{2048, 2048}, RealCase{4096, 4096},
                      RealCase{250, 256},     // test-sized sweep
                      RealCase{2500, 4096},   // production shape
                      RealCase{2501, 4096},   // odd sweep length
                      RealCase{1000, 1024}),  // prune beyond half
    [](const ::testing::TestParamInfo<RealCase>& info) {
        return "N" + std::to_string(info.param.n) + "nz" +
               std::to_string(info.param.samples);
    });

TEST(RealFftSuite, RejectsBadShapes) {
    EXPECT_THROW(RealFft(0), std::invalid_argument);
    EXPECT_THROW(RealFft(1), std::invalid_argument);
    const RealFft plan(250);
    FftScratch scratch;
    std::vector<double> re, im;
    const std::vector<double> sweep(250, 0.0), short_sweep(249, 0.0);
    EXPECT_THROW(plan.forward(short_sweep, sweep, re, im, scratch),
                 std::invalid_argument);
    EXPECT_THROW(plan.forward(sweep, short_sweep, re, im, scratch),
                 std::invalid_argument);
}

// ------------------------------------------------- SIMD dispatch levels

using testing_support::ForcedLevel;

constexpr simd::Level kAllLevels[] = {simd::Level::kScalar, simd::Level::kAvx2};

/// The kernel shapes the dispatch-level gates run: the pruned shapes above
/// plus one dense plan.
constexpr PrunedCase kKernelShapes[] = {{64, 40},     {256, 17},
                                        {2048, 1250}, {4096, 2500},
                                        {4096, 1},    {4096, 4095},
                                        {1024, 1024}};

TEST(SimdDispatch, EnvironmentSelectsInitialLevel) {
    // WITRACK_SIMD is read on the first active() call, and no test before
    // this one forces a level: `scalar` selects the scalar level; `avx2`,
    // any other value (a retired level name included) and no value keep
    // detect(). CMakeLists.txt runs this case alone once per value.
    const char* env = std::getenv("WITRACK_SIMD");
    SCOPED_TRACE(env != nullptr ? env : "(unset)");
    const bool scalar = env != nullptr && std::string_view(env) == "scalar";
    EXPECT_EQ(simd::active(), scalar ? simd::Level::kScalar : simd::detect());
}

TEST(SimdDispatch, ForceClampsToHardware) {
    ForcedLevel guard(simd::Level::kAvx2);
    EXPECT_LE(static_cast<int>(guard.granted()), static_cast<int>(simd::detect()));
    EXPECT_EQ(simd::active(), guard.granted());
}

TEST(SimdDispatch, EveryLevelMatchesNaiveDft) {
    // The accuracy gate of the KernelSizes/PrunedShapes suites, repeated
    // under every dispatch level this machine supports: no ISA path gets to
    // trade accuracy for speed.
    for (const simd::Level level : kAllLevels) {
        ForcedLevel guard(level);
        if (guard.granted() != level) continue;  // hardware lacks this level
        SCOPED_TRACE(simd::to_string(level));
        for (const auto& [n, nz] : kKernelShapes) {
            SCOPED_TRACE("N" + std::to_string(n) + "nz" + std::to_string(nz));
            auto in = random_signal(nz, static_cast<unsigned>(n + nz));
            in.resize(n, cplx(0.0, 0.0));
            EXPECT_LT(max_error(kernel_forward(Pow2Kernel(n, nz), in), naive_dft(in)),
                      1e-6 * static_cast<double>(n));
        }
    }
}

TEST(SimdDispatch, AllLevelsBitIdenticalForward) {
    // The lane templates perform the same IEEE-754 operations per element
    // at every width, so scalar and avx2 must agree bit for bit --
    // WITRACK_SIMD triage runs and heterogeneous fleets see one answer.
    if (simd::detect() != simd::Level::kAvx2) GTEST_SKIP() << "this CPU lacks AVX2";
    for (const auto& [n, nz] : kKernelShapes) {
        SCOPED_TRACE("N" + std::to_string(n) + "nz" + std::to_string(nz));
        auto in = random_signal(nz, static_cast<unsigned>(3 * n + nz));
        in.resize(n, cplx(0.0, 0.0));
        const Pow2Kernel plan(n, nz);

        std::vector<cplx> reference;
        {
            ForcedLevel guard(simd::Level::kScalar);
            ASSERT_EQ(guard.granted(), simd::Level::kScalar);
            reference = kernel_forward(plan, in);
        }
        ForcedLevel guard(simd::Level::kAvx2);
        const auto forward = kernel_forward(plan, in);
        for (std::size_t k = 0; k < n; ++k) {
            ASSERT_EQ(forward[k].real(), reference[k].real()) << "k=" << k;
            ASSERT_EQ(forward[k].imag(), reference[k].imag()) << "k=" << k;
        }
    }
}

TEST(SimdDispatch, RealWindowedPathBitIdenticalAcrossLevels) {
    // End-to-end r2c hot path (fused window, pruned production shape)
    // across dispatch levels.
    if (simd::detect() != simd::Level::kAvx2) GTEST_SKIP() << "this CPU lacks AVX2";
    const std::size_t nz = 2500;
    std::mt19937 rng(29);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> x(nz), w(nz);
    for (std::size_t i = 0; i < nz; ++i) {
        x[i] = dist(rng);
        w[i] = 0.5 + 0.5 * dist(rng);
    }
    const RealFft plan(nz);
    FftScratch scratch;
    std::vector<cplx> reference;
    {
        ForcedLevel guard(simd::Level::kScalar);
        reference = real_forward(plan, x, w, scratch);
    }
    ForcedLevel guard(simd::Level::kAvx2);
    const auto out = real_forward(plan, x, w, scratch);
    ASSERT_EQ(out.size(), reference.size());
    for (std::size_t k = 0; k < out.size(); ++k) {
        ASSERT_EQ(out[k].real(), reference[k].real()) << "k=" << k;
        ASSERT_EQ(out[k].imag(), reference[k].imag()) << "k=" << k;
    }
}

}  // namespace
}  // namespace witrack::dsp
