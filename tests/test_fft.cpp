// Range-transform tests: the radix-4 Pow2Kernel against a direct DFT
// (dense power-of-two sizes and pruned zero-padded shapes, plus linearity
// and Parseval), pruned == dense at one shape, the r2c RealFft at the
// production shape (2500 samples into 4096 points) and at dense
// power-of-two shapes, the fused window, the WITRACK_SIMD rule,
// bit-identity of the scalar and AVX2 dispatch levels, and byte equality
// of both levels with the frozen scalar reference in fft_reference.hpp
// (plus a golden CRC of the production-shape spectrum).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/serialize.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_kernels.hpp"
#include "dsp/simd.hpp"

#include "fft_reference.hpp"
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
        for (std::size_t t = 0, j = 0; t < n; ++t, j = j + k < n ? j + k : j + k - n) {
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
                         ::testing::Values(2, 4, 8, 16, 64, 256, 1024, 2048, 4096,
                                           16384),
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
                      PrunedCase{2048, 600},   // 2- and 1-live first stage
                      PrunedCase{2048, 1},     // pruned through the radix-2 fixup
                      PrunedCase{32, 3},
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
    ::testing::Values(RealCase{2, 2}, RealCase{4, 4}, RealCase{8, 8},
                      RealCase{16, 16}, RealCase{32, 32}, RealCase{64, 64},
                      RealCase{2048, 2048}, RealCase{4096, 4096},
                      RealCase{250, 256},     // test-sized sweep
                      RealCase{2500, 4096},   // production shape
                      RealCase{2501, 4096},   // odd sweep length
                      RealCase{1000, 1024},   // prune beyond half
                      RealCase{6000, 8192}),  // radix-16 last pass
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

// ------------------------------------------- frozen reference parity
//
// Every dispatch level must reproduce the frozen scalar schedule in
// fft_reference.hpp byte for byte (memcmp, so the sign of every zero
// counts), on inputs that reach the corners of IEEE-754 arithmetic: signed
// zeros, subnormals (alone, and mixed with normal values) and magnitudes
// near 1e300 (large enough to stress the exponent range, small enough that
// no 2048-term sum overflows).

/// SplitMix64: a fixed integer generator, so the inputs (and the golden
/// CRC below) do not depend on the standard library's distributions.
std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

enum class Corner { kMixed, kTiny, kSubnormal, kSparseZeros };

/// One seeded value of the given input class.
double corner_value(std::uint64_t& state, Corner corner) {
    const std::uint64_t r = splitmix64(state);
    const double u = static_cast<double>(r >> 11) * 0x1.0p-53;  // [0, 1)
    const std::uint64_t sign = (r & 8u) != 0 ? 0x8000000000000000ull : 0;
    const auto subnormal = [&] {
        const std::uint64_t mantissa = ((r >> 12) & 0xFFFFFFFFFFFFFull) | 1u;
        return std::bit_cast<double>(sign | mantissa);
    };
    switch (corner) {
        case Corner::kMixed:
            switch (r & 7u) {
                case 0: return 0.0;
                case 1: return -0.0;
                case 2: return subnormal();
                case 3: return (sign != 0 ? -1e300 : 1e300) * (1.0 + u);
                default: return 2.0 * u - 1.0;
            }
        case Corner::kTiny:
            switch (r & 3u) {
                case 0: return sign != 0 ? -0.0 : 0.0;
                case 1: return (sign != 0 ? -1e-300 : 1e-300) * u;
                default: return subnormal();
            }
        case Corner::kSubnormal: {
            // Small mantissas: sums over a whole transform stay subnormal,
            // so every halving and twiddle product rounds.
            const std::uint64_t mantissa = ((r >> 28) & 0xFFFFFFFFFull) | 1u;
            return std::bit_cast<double>(sign | mantissa);
        }
        case Corner::kSparseZeros:
            if ((r & 31u) == 0) return 2.0 * u - 1.0;
            return sign != 0 ? -0.0 : 0.0;
    }
    return 0.0;
}

constexpr Corner kCorners[] = {Corner::kMixed, Corner::kTiny, Corner::kSubnormal,
                               Corner::kSparseZeros};

std::vector<double> corner_signal(std::size_t n, std::uint64_t seed, Corner corner) {
    std::vector<double> v(n);
    for (auto& x : v) x = corner_value(seed, corner);
    return v;
}

/// A window in [0, 2) with an occasional signed zero: every product with
/// a corner value stays finite.
std::vector<double> tame_window(std::size_t n, std::uint64_t state) {
    std::vector<double> w(n);
    for (auto& v : w) {
        const std::uint64_t r = splitmix64(state);
        const double u = static_cast<double>(r >> 11) * 0x1.0p-52;
        v = (r & 15u) == 0 ? ((r & 16u) != 0 ? -0.0 : 0.0) : u;
    }
    return w;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Kernel output of plan (n, nz) against the frozen reference, at every
/// dispatch level this machine supports. The tail [nz, n) holds NaN: the
/// pruned kernel must never read it.
void expect_kernel_matches_reference(std::size_t n, std::size_t nz) {
    const Pow2Kernel plan(n, nz);
    const reference::Pow2Reference frozen(n, nz);
    const std::size_t live = plan.n_nonzero();
    for (const Corner corner : kCorners) {
        const std::uint64_t seed = 1000003u * n + nz + static_cast<std::uint64_t>(corner);
        std::vector<double> re = corner_signal(live, seed, corner);
        std::vector<double> im = corner_signal(live, ~seed, corner);
        re.resize(n, std::nan(""));
        im.resize(n, std::nan(""));
        std::vector<double> ref_re = re, ref_im = im, wr(n), wi(n);
        frozen.forward(ref_re.data(), ref_im.data(), wr.data(), wi.data());
        for (const simd::Level level : kAllLevels) {
            ForcedLevel guard(level);
            if (guard.granted() != level) continue;
            SCOPED_TRACE(std::string(simd::to_string(level)) + " corner " +
                         std::to_string(static_cast<int>(corner)));
            std::vector<double> out_re = re, out_im = im;
            std::fill(wr.begin(), wr.end(), std::nan(""));
            std::fill(wi.begin(), wi.end(), std::nan(""));
            plan.forward(out_re.data(), out_im.data(), wr.data(), wi.data());
            EXPECT_TRUE(same_bytes(out_re, ref_re));
            EXPECT_TRUE(same_bytes(out_im, ref_im));
        }
    }
}

TEST_P(KernelSizes, BytewiseEqualsFrozenReference) {
    expect_kernel_matches_reference(GetParam(), GetParam());
}

TEST_P(PrunedShapes, BytewiseEqualsFrozenReference) {
    expect_kernel_matches_reference(GetParam().n, GetParam().nonzero);
}

TEST_P(RealShapes, BytewiseEqualsFrozenReference) {
    const std::size_t nz = GetParam().samples;
    const RealFft plan(nz);
    for (const Corner corner : kCorners) {
        const std::uint64_t seed = 7919u * nz + static_cast<std::uint64_t>(corner);
        const auto x = corner_signal(nz, seed, corner);
        const auto w = tame_window(nz, ~seed);
        std::vector<double> ref_re, ref_im;
        reference::real_forward(x, w, ref_re, ref_im);
        for (const simd::Level level : kAllLevels) {
            ForcedLevel guard(level);
            if (guard.granted() != level) continue;
            SCOPED_TRACE(std::string(simd::to_string(level)) + " corner " +
                         std::to_string(static_cast<int>(corner)));
            FftScratch scratch;
            std::vector<double> re, im;
            plan.forward(x, w, re, im, scratch);
            EXPECT_TRUE(same_bytes(re, ref_re));
            EXPECT_TRUE(same_bytes(im, ref_im));
        }
    }
}

TEST(RealFftSuite, ProductionSpectrumMatchesGoldenCrc) {
    // CRC-32 of the 2500 -> 4096 half spectrum's bytes (re plane, then im
    // plane) for a fixed seeded input, computed by the radix-4 schedule
    // before it was fused into multi-stage vector passes. Any change to an
    // element's operation sequence, or to a twiddle value, changes it.
    constexpr std::uint32_t kGoldenCrc = 0x2C425117u;
    const std::size_t nz = 2500;
    const auto x = corner_signal(nz, 20141, Corner::kMixed);
    const auto w = tame_window(nz, 20142);
    const RealFft plan(nz);
    for (const simd::Level level : kAllLevels) {
        ForcedLevel guard(level);
        if (guard.granted() != level) continue;
        SCOPED_TRACE(simd::to_string(level));
        FftScratch scratch;
        std::vector<double> re, im;
        plan.forward(x, w, re, im, scratch);
        std::uint32_t crc = common::crc32(re.data(), re.size() * sizeof(double));
        crc = common::crc32(im.data(), im.size() * sizeof(double), crc);
        EXPECT_EQ(crc, kGoldenCrc) << std::hex << "0x" << crc;
    }
}

}  // namespace
}  // namespace witrack::dsp
