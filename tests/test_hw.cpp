// Hardware front-end tests: VCO tuning, PLL sweep linearization, dechirp
// mixer tone placement, ADC quantization, and the assembled front end
// (including static-path caching and background-subtraction realism).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "dsp/simd.hpp"
#include "hw/adc.hpp"
#include "hw/frontend.hpp"
#include "hw/mixer.hpp"
#include "hw/pll.hpp"
#include "hw/vco.hpp"
#include "rf/channel.hpp"

#include "forced_level.hpp"

namespace witrack::hw {
namespace {

using geom::Vec3;
using rf::BodyScatterer;

/// Exact-length half spectrum (N/2 + 1 bins, N = x.size()) of a real sweep
/// by direct DFT, X_k = sum_t x_t exp(-2*pi*i*k*t/N), through one twiddle
/// table indexed by k*t mod N. These tests place tones on the N-point grid
/// of one unpadded sweep, which the padded range transform does not use.
std::vector<std::complex<double>> half_spectrum(const std::vector<double>& x) {
    const std::size_t n = x.size();
    std::vector<double> cos_t(n), sin_t(n);
    for (std::size_t j = 0; j < n; ++j) {
        const double angle = 2.0 * M_PI * static_cast<double>(j) / static_cast<double>(n);
        cos_t[j] = std::cos(angle);
        sin_t[j] = std::sin(angle);
    }
    std::vector<std::complex<double>> out(n / 2 + 1);
    for (std::size_t k = 0; k < out.size(); ++k) {
        double re = 0.0, im = 0.0;
        for (std::size_t t = 0, j = 0; t < n; ++t, j = (j + k) % n) {
            re += x[t] * cos_t[j];
            im -= x[t] * sin_t[j];
        }
        out[k] = {re, im};
    }
    return out;
}

// -------------------------------------------------------------------- VCO

TEST(VcoTest, FrequencyMonotoneInVoltage) {
    Vco vco;
    double prev = 0.0;
    for (double v = 0.0; v <= 8.0; v += 0.5) {
        const double f = vco.frequency(v);
        EXPECT_GT(f, prev);
        prev = f;
    }
}

TEST(VcoTest, ExactVoltageInvertsTuningCurve) {
    Vco vco;
    for (double f : {5.6e9, 6.2e9, 7.0e9}) {
        const double v = vco.exact_voltage(f);
        EXPECT_NEAR(vco.frequency(v), f, 1.0);
    }
}

TEST(VcoTest, OpenLoopVoltageIgnoresCurvature) {
    // With curvature, the naive linear inversion lands off-frequency.
    Vco vco;
    const double f_target = 7.0e9;
    const double v = vco.open_loop_voltage(f_target);
    EXPECT_GT(std::abs(vco.frequency(v) - f_target), 1e6);
}

TEST(VcoTest, RejectsNonPositiveGain) {
    Vco::Tuning bad;
    bad.gain_hz_per_v = 0.0;
    EXPECT_THROW(Vco{bad}, std::invalid_argument);
}

// -------------------------------------------------------------------- PLL

TEST(PllTest, ClosedLoopBeatsOpenLoop) {
    // The feedback linearizer (paper Fig. 7) must reduce the sweep error by
    // orders of magnitude versus the naive voltage ramp.
    Vco vco;
    FmcwParams fmcw;
    SweepLinearizer::Config open_config;
    open_config.closed_loop = false;
    const auto open = SweepLinearizer(open_config).simulate_sweep(vco, fmcw);
    const auto closed = SweepLinearizer().simulate_sweep(vco, fmcw);
    EXPECT_GT(open.rms_error_hz, 1e6);            // megahertz-scale nonlinearity
    EXPECT_LT(closed.rms_error_hz, open.rms_error_hz / 20.0);
}

TEST(PllTest, RippleFitCapturesResidual) {
    Vco vco;
    FmcwParams fmcw;
    const auto result = SweepLinearizer().simulate_sweep(vco, fmcw);
    const auto ripple = result.fit_ripple(fmcw.sweep_duration_s);
    EXPECT_GT(ripple.ripple_frequency_hz, 0.0);
    EXPECT_LT(ripple.ripple_amplitude_hz, result.max_abs_error_hz + 1.0);
}

TEST(PllTest, ErrorSequenceLengthMatchesConfig) {
    Vco vco;
    FmcwParams fmcw;
    SweepLinearizer::Config config;
    config.control_steps = 125;
    const auto result = SweepLinearizer(config).simulate_sweep(vco, fmcw);
    EXPECT_EQ(result.frequency_error_hz.size(), 125u);
}

// ------------------------------------------------------------------ mixer

TEST(MixerTest, ToneLandsAtBeatFrequencyBin) {
    FmcwParams fmcw;
    DechirpMixer mixer(fmcw);
    rf::PropagationPath path;
    path.round_trip_m = 10.0;
    path.amplitude = 1.0;
    const auto sweep = mixer.synthesize({&path, 1});
    const auto spectrum = half_spectrum(sweep);

    const double beat = fmcw.slope() * (10.0 / kSpeedOfLight);
    const auto expected_bin = static_cast<std::size_t>(
        beat / fmcw.sample_rate_hz * static_cast<double>(sweep.size()) + 0.5);
    std::size_t best = 0;
    for (std::size_t k = 1; k < sweep.size() / 2; ++k)
        if (std::abs(spectrum[k]) > std::abs(spectrum[best])) best = k;
    EXPECT_NEAR(static_cast<double>(best), static_cast<double>(expected_bin), 1.0);
}

TEST(MixerTest, AmplitudePreserved) {
    FmcwParams fmcw;
    DechirpMixer mixer(fmcw);
    rf::PropagationPath path;
    // Bin-aligned tone (no scalloping loss with the rectangular window).
    path.round_trip_m = 68.0 * fmcw.round_trip_bin_m();
    path.amplitude = 0.5;
    const auto sweep = mixer.synthesize({&path, 1});
    const auto spectrum = half_spectrum(sweep);
    double peak = 0.0;
    for (std::size_t k = 1; k < sweep.size() / 2; ++k)
        peak = std::max(peak, std::abs(spectrum[k]));
    // A real tone of amplitude A concentrates N*A/2 in its positive bin.
    EXPECT_NEAR(peak, 0.5 * static_cast<double>(sweep.size()) / 2.0,
                0.02 * peak);
}

TEST(MixerTest, PathsSuperpose) {
    FmcwParams fmcw;
    DechirpMixer mixer(fmcw);
    rf::PropagationPath p1, p2;
    p1.round_trip_m = 6.0;
    p1.amplitude = 1.0;
    p2.round_trip_m = 14.0;
    p2.amplitude = 0.3;
    const std::vector<rf::PropagationPath> both{p1, p2};
    const auto sum = mixer.synthesize(both);
    const auto a = mixer.synthesize({&p1, 1});
    const auto b = mixer.synthesize({&p2, 1});
    for (std::size_t i = 0; i < sum.size(); i += 97)
        EXPECT_NEAR(sum[i], a[i] + b[i], 1e-9);
}

TEST(MixerTest, NonlinearityRaisesSidelobes) {
    FmcwParams fmcw;
    SweepNonlinearity ripple{4e5, 4000.0, 0.3};  // sidelobes at +-10 bins
    DechirpMixer clean(fmcw), dirty(fmcw, ripple);
    rf::PropagationPath path;
    // Bin-aligned so the clean spectrum has no scalloping sidelobes.
    path.round_trip_m = 100.0 * fmcw.round_trip_bin_m();
    path.amplitude = 1.0;
    auto energy_off_peak = [&](const std::vector<double>& sweep) {
        const auto spec = half_spectrum(sweep);
        std::size_t best = 0;
        for (std::size_t k = 1; k < sweep.size() / 2; ++k)
            if (std::abs(spec[k]) > std::abs(spec[best])) best = k;
        double acc = 0.0;
        for (std::size_t k = 1; k < sweep.size() / 2; ++k)
            if (k + 4 < best || k > best + 4) acc += std::norm(spec[k]);
        return acc;
    };
    EXPECT_GT(energy_off_peak(dirty.synthesize({&path, 1})),
              2.0 * energy_off_peak(clean.synthesize({&path, 1})));
}

TEST(MixerTest, RejectsWrongBufferSize) {
    FmcwParams fmcw;
    DechirpMixer mixer(fmcw);
    std::vector<double> bad(100);
    rf::PropagationPath path;
    EXPECT_THROW(mixer.synthesize({&path, 1}, bad), std::invalid_argument);
}

/// Random paths for the mixer property tests: an odd count above the
/// mixer's 16-tone batch, so pairs, a lone last tone and a batch flush all
/// run; amplitudes span four decades, and one zero-amplitude path must be
/// skipped.
std::vector<rf::PropagationPath> random_paths(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<rf::PropagationPath> paths(41);
    for (auto& p : paths) {
        p.round_trip_m = rng.uniform(2.0, 40.0);
        p.amplitude = std::pow(10.0, rng.uniform(-7.0, -3.0));
        p.phase_rad = rng.uniform(-M_PI, M_PI);
    }
    paths[5].amplitude = 0.0;
    return paths;
}

/// Sweep shapes for the mixer property tests: the paper's 2500 samples
/// (a partial last block) and 1024 (whole blocks, ending on a
/// renormalization boundary).
std::vector<FmcwParams> mixer_shapes() {
    FmcwParams paper;
    FmcwParams whole_blocks;
    whole_blocks.sweep_duration_s = 1.024e-3;
    return {paper, whole_blocks};
}

const SweepNonlinearity kTestRipple{4e5, 4000.0, 0.3};

using testing_support::ForcedLevel;

TEST(MixerTest, MatchesDirectCosineEvaluation) {
    // The blocked recurrence against amp * cos(phi0 + i * dphi) evaluated
    // sample by sample (with the first-order ripple term when enabled).
    for (const FmcwParams& fmcw : mixer_shapes()) {
        for (const bool with_ripple : {false, true}) {
            SCOPED_TRACE(std::to_string(fmcw.samples_per_sweep()) +
                         (with_ripple ? " ripple" : " clean"));
            const SweepNonlinearity ripple = with_ripple ? kTestRipple : SweepNonlinearity{};
            const DechirpMixer mixer(fmcw, ripple);
            const auto paths = random_paths(with_ripple ? 11 : 12);
            const auto sweep = mixer.synthesize(paths);

            const std::size_t n = fmcw.samples_per_sweep();
            std::vector<double> reference(n, 0.0);
            double amp_sum = 0.0;
            for (const auto& p : paths) {
                if (p.amplitude <= 0.0) continue;
                amp_sum += p.amplitude;
                const double tau = p.round_trip_m / kSpeedOfLight;
                const double phi0 = 2.0 * M_PI *
                                        (fmcw.start_frequency_hz * tau -
                                         0.5 * fmcw.slope() * tau * tau) +
                                    p.phase_rad;
                const double dphi = 2.0 * M_PI * fmcw.slope() * tau / fmcw.sample_rate_hz;
                for (std::size_t i = 0; i < n; ++i) {
                    const double phi = phi0 + static_cast<double>(i) * dphi;
                    double v = std::cos(phi);
                    if (with_ripple) {
                        const double t = static_cast<double>(i) / fmcw.sample_rate_hz;
                        const double delta =
                            2.0 * M_PI * ripple.ripple_amplitude_hz * tau *
                            std::sin(2.0 * M_PI * ripple.ripple_frequency_hz * t +
                                     ripple.phase_rad);
                        v -= delta * std::sin(phi);
                    }
                    reference[i] += p.amplitude * v;
                }
            }
            double worst = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                worst = std::max(worst, std::abs(sweep[i] - reference[i]));
            EXPECT_LE(worst, 1e-9 * amp_sum);
        }
    }
}

TEST(MixerTest, BitIdenticalAcrossSimdLevels) {
    // Every dispatch level runs the same per-element operations, so the
    // synthesized sweep must match the scalar level bit for bit.
    namespace simd = dsp::simd;
    if (simd::detect() != simd::Level::kAvx2) GTEST_SKIP() << "this CPU lacks AVX2";
    for (const FmcwParams& fmcw : mixer_shapes()) {
        for (const bool with_ripple : {false, true}) {
            SCOPED_TRACE(std::to_string(fmcw.samples_per_sweep()) +
                         (with_ripple ? " ripple" : " clean"));
            const DechirpMixer mixer(fmcw, with_ripple ? kTestRipple : SweepNonlinearity{});
            const auto paths = random_paths(21);
            std::vector<double> reference;
            {
                ForcedLevel guard(simd::Level::kScalar);
                reference = mixer.synthesize(paths);
            }
            ForcedLevel guard(simd::Level::kAvx2);
            const auto sweep = mixer.synthesize(paths);
            ASSERT_EQ(sweep.size(), reference.size());
            EXPECT_EQ(std::memcmp(sweep.data(), reference.data(),
                                  sweep.size() * sizeof(double)),
                      0);
        }
    }
}

// -------------------------------------------------------------------- ADC

TEST(AdcTest, QuantizationStepMatchesBits) {
    Adc adc(8);
    adc.calibrate({1.0, -0.5, 0.25}, 2.0);  // full scale 2.0
    EXPECT_NEAR(adc.lsb(), 2.0 / 128.0, 1e-12);
}

TEST(AdcTest, QuantizesToLsbGrid) {
    Adc adc(8);
    adc.calibrate({1.0}, 1.0);
    std::vector<double> v{0.013, -0.27, 0.5};
    adc.process(v);
    for (double x : v)
        EXPECT_NEAR(std::remainder(x, adc.lsb()), 0.0, 1e-12);
}

TEST(AdcTest, ClipsAtFullScale) {
    Adc adc(12);
    adc.calibrate({1.0}, 1.0);
    std::vector<double> v{5.0, -7.0};
    adc.process(v);
    EXPECT_NEAR(v[0], 1.0, 1e-9);
    EXPECT_NEAR(v[1], -1.0, 1e-9);
}

TEST(AdcTest, ZeroBitsDisables) {
    Adc adc(0);
    adc.calibrate({1.0});
    std::vector<double> v{0.1234567};
    adc.process(v);
    EXPECT_DOUBLE_EQ(v[0], 0.1234567);
    EXPECT_DOUBLE_EQ(adc.lsb(), 0.0);
}

TEST(AdcTest, RejectsAbsurdBitDepths) {
    EXPECT_THROW(Adc(-1), std::invalid_argument);
    EXPECT_THROW(Adc(32), std::invalid_argument);
}

// --------------------------------------------------------------- frontend

rf::Channel simple_channel(rf::Scene scene = {}) {
    rf::ChannelConfig config;
    rf::Antenna tx{{0, 0, 1.3}, {0, 1, 0}, {}};
    std::vector<rf::Antenna> rx = {
        rf::Antenna{{-1, 0, 1.3}, {0, 1, 0}, {}},
        rf::Antenna{{1, 0, 1.3}, {0, 1, 0}, {}},
        rf::Antenna{{0, 0, 0.3}, {0, 1, 0}, {}},
    };
    return rf::Channel(config, tx, rx, std::move(scene));
}

/// Capture one sweep through the FrameBuffer path and unpack it into one
/// sample vector per receive antenna for inspection.
std::vector<std::vector<double>> capture_sweep(
    FmcwFrontend& frontend, std::span<const BodyScatterer> body = {}) {
    FrameBuffer frame(frontend.num_rx(), 1, frontend.params().samples_per_sweep());
    frontend.capture_sweep_into(frame, 0, body);
    std::vector<std::vector<double>> sweeps;
    sweeps.reserve(frame.num_rx());
    for (std::size_t rx = 0; rx < frame.num_rx(); ++rx) {
        const auto row = frame.sweep(rx, 0);
        sweeps.emplace_back(row.begin(), row.end());
    }
    return sweeps;
}

TEST(FrontendTest, CapturesOneSweepPerAntenna) {
    FrontendConfig config;
    FmcwFrontend frontend(config, simple_channel(), Rng(1));
    const auto sweeps = capture_sweep(frontend, {});
    ASSERT_EQ(sweeps.size(), 3u);
    for (const auto& s : sweeps)
        EXPECT_EQ(s.size(), config.fmcw.samples_per_sweep());
}

TEST(FrontendTest, BodyEchoAppearsAtCorrectBin) {
    FrontendConfig config;
    config.noise.system_noise_figure_db = 5.0;  // quiet for a clean check
    config.adc_bits = 0;
    FmcwFrontend frontend(config, simple_channel(), Rng(2));
    const BodyScatterer s{{0.0, 5.0, 1.3}, 0.8, 0.0};
    const auto sweeps = capture_sweep(frontend, {&s, 1});

    // Subtract the static-only capture to isolate the body echo.
    FmcwFrontend reference(config, simple_channel(), Rng(2));
    const auto statics = capture_sweep(reference, {});
    std::vector<double> diff(sweeps[0].size());
    for (std::size_t i = 0; i < diff.size(); ++i)
        diff[i] = sweeps[0][i] - statics[0][i];

    const auto spec = half_spectrum(diff);
    std::size_t best = 1;
    for (std::size_t k = 2; k < diff.size() / 2; ++k)
        if (std::abs(spec[k]) > std::abs(spec[best])) best = k;

    const double expected_rt = Vec3{0, 5, 1.3}.distance_to({0, 0, 1.3}) +
                               Vec3{0, 5, 1.3}.distance_to({-1, 0, 1.3});
    const double measured_rt =
        static_cast<double>(best) * config.fmcw.round_trip_bin_m();
    EXPECT_NEAR(measured_rt, expected_rt, config.fmcw.round_trip_bin_m());
}

TEST(FrontendTest, HighPassSuppressesLeakageBeat) {
    // The Tx-Rx leakage sits at a very low beat frequency; the analog
    // high-pass must knock it well below its unfiltered level.
    FrontendConfig config;
    config.noise.system_noise_figure_db = 5.0;
    config.adc_bits = 0;
    config.static_gain_jitter = 0.0;
    config.highpass_cutoff_hz = 8000.0;  // leakage beat sits at ~2.3 kHz

    FmcwFrontend filtered(config, simple_channel(), Rng(3));
    const auto out = capture_sweep(filtered, {});
    const auto spec = half_spectrum(out[0]);

    // Leakage round trip = 1 m -> beat = slope/c ~ 2.3 kHz -> bin ~ 5.6.
    const auto leak_bin = static_cast<std::size_t>(
        1.0 / config.fmcw.round_trip_bin_m() + 0.5);
    const double leak_power = std::abs(spec[std::max<std::size_t>(leak_bin, 1)]);

    // Compare against the raw mixer output of the same leakage path.
    DechirpMixer mixer(config.fmcw);
    rf::PropagationPath leak;
    leak.round_trip_m = 1.0;
    leak.amplitude = std::sqrt(config.fmcw.tx_power_w * from_db(-50.0));
    const auto raw = mixer.synthesize({&leak, 1});
    const auto raw_spec = half_spectrum(raw);
    const double raw_power = std::abs(raw_spec[std::max<std::size_t>(leak_bin, 1)]);

    EXPECT_LT(leak_power, raw_power * 0.5);
}

TEST(FrontendTest, StaticSceneCancelsUnderFrameDifferencing) {
    // Two consecutive captures of a static scene must differ only by noise
    // and jitter -- orders of magnitude below the static signal itself.
    rf::Scene scene;
    scene.clutter.push_back({{1.0, 4.0, 1.0}, 2.0});
    FrontendConfig config;
    config.noise.system_noise_figure_db = 5.0;  // isolate the jitter residue
    config.static_gain_jitter = 1e-3;
    FmcwFrontend frontend(config, simple_channel(scene), Rng(4));
    (void)capture_sweep(frontend, {});  // settle the stateful high-pass filter
    const auto a = capture_sweep(frontend, {});
    const auto b = capture_sweep(frontend, {});
    double signal = 0.0, residue = 0.0;
    for (std::size_t i = 0; i < a[0].size(); ++i) {
        signal += a[0][i] * a[0][i];
        const double d = a[0][i] - b[0][i];
        residue += d * d;
    }
    EXPECT_LT(residue, signal * 1e-3);
}

TEST(FrontendTest, DeterministicForSameSeed) {
    FrontendConfig config;
    FmcwFrontend f1(config, simple_channel(), Rng(9));
    FmcwFrontend f2(config, simple_channel(), Rng(9));
    const BodyScatterer s{{0.3, 4.0, 1.0}, 0.8, 0.1};
    const auto a = capture_sweep(f1, {&s, 1});
    const auto b = capture_sweep(f2, {&s, 1});
    for (std::size_t i = 0; i < a[0].size(); i += 131)
        EXPECT_DOUBLE_EQ(a[0][i], b[0][i]);
}

}  // namespace
}  // namespace witrack::hw
