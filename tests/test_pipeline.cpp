// Core pipeline unit tests: range FFT, band-limited background subtraction,
// contour tracking, TOF denoising, and the localizer stage -- each exercised
// on synthetic inputs with known answers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/random.hpp"
#include "common/serialize.hpp"
#include "core/background.hpp"
#include "core/contour.hpp"
#include "core/denoise.hpp"
#include "core/localize.hpp"
#include "core/pipeline_steps.hpp"
#include "core/range_fft.hpp"
#include "core/tof.hpp"
#include "dsp/window.hpp"
#include "geom/array_geometry.hpp"
#include "hw/mixer.hpp"

namespace witrack::core {
namespace {

using geom::Vec3;

PipelineConfig test_config() {
    PipelineConfig config;
    return config;
}

/// Synthesize a sweep containing one echo at the given round trip.
std::vector<double> sweep_with_echo(const FmcwParams& fmcw, double round_trip_m,
                                    double amplitude = 1.0) {
    hw::DechirpMixer mixer(fmcw);
    rf::PropagationPath path;
    path.round_trip_m = round_trip_m;
    path.amplitude = amplitude;
    return mixer.synthesize({&path, 1});
}

/// Pack loose sweeps into a single-antenna FrameBuffer and run the
/// processor over it (FrameBuffer is the only ingestion type).
RangeProfile process_sweeps(SweepProcessor& processor,
                            const std::vector<std::vector<double>>& sweeps) {
    FrameBuffer frame(1, sweeps.size(), sweeps.front().size());
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
        auto dst = frame.sweep(0, s);
        std::copy(sweeps[s].begin(), sweeps[s].end(), dst.begin());
    }
    RangeProfile profile;
    processor.process_into(frame.antenna(0), frame.num_sweeps(), profile);
    return profile;
}

// -------------------------------------------------------------- range FFT

TEST(RangeFft, PeakAtEchoDistance) {
    const auto config = test_config();
    SweepProcessor processor(config.fmcw);
    const auto profile = process_sweeps(processor, {sweep_with_echo(config.fmcw, 12.0)});
    std::size_t best = 1;
    for (std::size_t k = 2; k < profile.usable_bins; ++k)
        if (std::abs(profile.bin(k)) > std::abs(profile.bin(best))) best = k;
    EXPECT_NEAR(profile.round_trip_of_bin(static_cast<double>(best)), 12.0,
                profile.bin_round_trip_m);
}

TEST(RangeFft, AveragingReducesNoiseButKeepsSignal) {
    const auto config = test_config();
    SweepProcessor processor(config.fmcw);
    witrack::Rng rng(1);
    auto noisy_sweep = [&] {
        auto s = sweep_with_echo(config.fmcw, 10.0, 0.01);
        for (auto& v : s) v += rng.gaussian(0.05);
        return s;
    };
    const auto one = process_sweeps(processor, {noisy_sweep()});
    const auto five = process_sweeps(
        processor,
        {noisy_sweep(), noisy_sweep(), noisy_sweep(), noisy_sweep(), noisy_sweep()});
    auto peak_to_floor = [&](const RangeProfile& p) {
        const auto bin = static_cast<std::size_t>(p.bin_of_round_trip(10.0) + 0.5);
        double floor = 0.0;
        std::size_t n = 0;
        for (std::size_t k = 50; k < p.usable_bins; ++k) {
            if (k + 30 > bin && k < bin + 30) continue;
            floor += std::abs(p.bin(k));
            ++n;
        }
        return std::abs(p.bin(bin)) / (floor / static_cast<double>(n));
    };
    EXPECT_GT(peak_to_floor(five), 1.5 * peak_to_floor(one));
}

TEST(RangeFft, ZeroPadsToNextPowerOfTwo) {
    const auto config = test_config();
    SweepProcessor processor(config.fmcw);
    const auto profile = process_sweeps(processor, {sweep_with_echo(config.fmcw, 8.0)});
    // 2500 samples pad to 4096 points; r2c half-spectrum contract:
    // usable_bins + 1 bins (DC..Nyquist).
    ASSERT_EQ(config.fmcw.samples_per_sweep(), 2500u);
    EXPECT_EQ(profile.usable_bins, 2048u);
    EXPECT_EQ(profile.spectrum_size(), profile.usable_bins + 1);
    // Padding refines the bin grid; the C/2B resolution is unchanged.
    EXPECT_NEAR(profile.bin_round_trip_m,
                config.fmcw.round_trip_bin_m() * 2500.0 / 4096.0, 1e-12);
}

TEST(RangeFft, SingleSweepEqualsCopyThenTransformBytewise) {
    // A one-sweep frame is transformed straight from the caller's sweep.
    // The path it replaced first copied the sweep scaled by 1/1 into the
    // averaging buffer; x * 1.0 == x bit for bit, and a signalling NaN is
    // quieted once by the window multiply on either path.
    const auto config = test_config();
    const std::size_t n = config.fmcw.samples_per_sweep();
    std::vector<double> window = dsp::hann_window(n);
    const double gain = dsp::window_gain(window) / static_cast<double>(n);
    for (auto& w : window) w /= gain;
    const dsp::RealFft rfft(n);

    witrack::Rng rng(11);
    for (int variant = 0; variant < 3; ++variant) {
        SCOPED_TRACE(variant);
        auto sweep = sweep_with_echo(config.fmcw, 9.0);
        for (auto& v : sweep) v += rng.gaussian(0.05);
        sweep[3] = -0.0;
        sweep[4] = 0.0;
        sweep[5] = 4.9e-324;  // subnormal
        if (variant == 1) sweep[6] = std::numeric_limits<double>::signaling_NaN();
        if (variant == 2) sweep[6] = -std::numeric_limits<double>::infinity();

        std::vector<double> copied(n);
        const double scale = 1.0 / static_cast<double>(1);
        for (std::size_t i = 0; i < n; ++i) copied[i] = sweep[i] * scale;
        std::vector<double> re, im;
        dsp::FftScratch scratch;
        rfft.forward(copied, window, re, im, scratch);

        SweepProcessor processor(config.fmcw);
        RangeProfile profile;
        processor.process_into(sweep, 1, profile);
        ASSERT_EQ(profile.re.size(), re.size());
        EXPECT_EQ(std::memcmp(profile.re.data(), re.data(), re.size() * sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(profile.im.data(), im.data(), im.size() * sizeof(double)), 0);
    }
}

TEST(RangeFft, RejectsBadInput) {
    const auto config = test_config();
    SweepProcessor processor(config.fmcw);
    RangeProfile out;
    EXPECT_THROW(processor.process_into({}, 0, out), std::invalid_argument);
    const std::vector<double> short_sweep(7, 0.0);
    EXPECT_THROW(processor.process_into(short_sweep, 1, out),
                 std::invalid_argument);
}

// ------------------------------------------------------------- background

TEST(Background, FrameDiffRemovesStaticKeepsMoving) {
    const auto config = test_config();
    SweepProcessor processor(config.fmcw);
    BackgroundSubtractor subtractor(
        tracked_band(processor.usable_bins(), processor.bin_round_trip_m()));

    // Static reflector at 6 m in every frame; "person" moves 10 -> 10.5 m.
    hw::DechirpMixer mixer(config.fmcw);
    auto frame_at = [&](double person_rt) {
        std::vector<rf::PropagationPath> paths(2);
        paths[0].round_trip_m = 6.0;
        paths[0].amplitude = 1.0;
        paths[1].round_trip_m = person_rt;
        paths[1].amplitude = 0.05;
        return process_sweeps(processor, {mixer.synthesize(paths)});
    };

    EXPECT_TRUE(subtractor.subtract(frame_at(10.0)).empty());  // first frame
    const auto diff = subtractor.subtract(frame_at(10.5));
    ASSERT_FALSE(diff.empty());

    const auto profile = frame_at(10.5);
    const auto static_bin =
        static_cast<std::size_t>(profile.bin_of_round_trip(6.0) + 0.5);
    const auto person_bin =
        static_cast<std::size_t>(profile.bin_of_round_trip(10.3) + 0.5);
    // The moving echo's differenced energy dwarfs the static residue.
    double person_peak = 0.0, static_peak = 0.0;
    for (std::size_t k = person_bin - 8; k < person_bin + 8; ++k)
        person_peak = std::max(person_peak, diff[k]);
    for (std::size_t k = static_bin - 4; k < static_bin + 4; ++k)
        static_peak = std::max(static_peak, diff[k]);
    EXPECT_GT(person_peak, 50.0 * static_peak);
}

TEST(Background, BandMatchesFullSpectrumDifferenceBitForBit) {
    // One simulated frame pair: a static reflector, a moving person and an
    // echo beyond kMaxRoundTripM. The band differencer's magnitudes are
    // the full-spectrum difference's, bit for bit, on [0, band).
    const auto config = test_config();
    SweepProcessor processor(config.fmcw);
    const std::size_t band =
        tracked_band(processor.usable_bins(), processor.bin_round_trip_m());
    hw::DechirpMixer mixer(config.fmcw);
    auto frame_at = [&](double person_rt) {
        std::vector<rf::PropagationPath> paths(3);
        paths[0].round_trip_m = 6.0;
        paths[0].amplitude = 1.0;
        paths[1].round_trip_m = person_rt;
        paths[1].amplitude = 0.05;
        paths[2].round_trip_m = 40.0 + person_rt;
        paths[2].amplitude = 0.02;
        return process_sweeps(processor, {mixer.synthesize(paths)});
    };
    const auto first = frame_at(10.0);
    const auto second = frame_at(10.4);

    BackgroundSubtractor subtractor(band);
    ASSERT_TRUE(subtractor.subtract(first).empty());
    const auto magnitude = subtractor.subtract(second);
    ASSERT_EQ(magnitude.size(), band);

    // Reference: the frame difference over the whole spectrum.
    const std::size_t n = second.spectrum_size();
    std::vector<double> full(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double dr = second.re[i] - first.re[i];
        const double di = second.im[i] - first.im[i];
        full[i] = std::sqrt(dr * dr + di * di);
    }
    EXPECT_EQ(0, std::memcmp(magnitude.data(), full.data(), band * sizeof(double)));

    // A band wider than the profile is a wiring error, not a short read.
    BackgroundSubtractor too_wide(processor.usable_bins() + 1);
    EXPECT_THROW(too_wide.subtract(first), std::invalid_argument);
}

TEST(Background, BandIsTheContourWindowEnd) {
    // At the default config the band is 28 m of round trip: 259 bins of
    // 0.1083 m, the upper edge of the window contour detection reads.
    const auto config = test_config();
    SweepProcessor processor(config.fmcw);
    const double bin_m = processor.bin_round_trip_m();
    const std::size_t band = tracked_band(processor.usable_bins(), bin_m);
    EXPECT_EQ(band, 259u);
    EXPECT_EQ(tracked_band(100, bin_m), 100u);  // capped at the profile

    ContourTracker tracker(config);
    auto peak_at = [&](std::size_t bin) {
        std::vector<double> mag(processor.usable_bins(), 1.0);
        mag[bin] = 20.0;
        return tracker.extract(mag, bin_m);
    };
    const auto inside = peak_at(band - 2);
    ASSERT_TRUE(inside.detected);
    EXPECT_NEAR(inside.round_trip_m, static_cast<double>(band - 2) * bin_m, bin_m);
    EXPECT_FALSE(peak_at(band).detected);  // first bin past the window
}

TEST(Background, RejectedSnapshotLeavesSubtractorUntouched) {
    const auto config = test_config();
    SweepProcessor processor(config.fmcw);
    const std::size_t band =
        tracked_band(processor.usable_bins(), processor.bin_round_trip_m());
    const auto a = process_sweeps(processor, {sweep_with_echo(config.fmcw, 9.0)});
    const auto b = process_sweeps(processor, {sweep_with_echo(config.fmcw, 9.3)});

    constexpr std::uint32_t kMagic = 0x54534554u;
    auto stream = [&](const std::vector<double>& re, const std::vector<double>& im) {
        std::ostringstream out;
        common::StateWriter writer(out, kMagic, 1);
        writer.begin_chunk("BGND");
        writer.f64_vector(re);
        writer.f64_vector(im);
        writer.end_chunk();
        writer.finish();
        return out.str();
    };
    auto load = [&](BackgroundSubtractor& target, const std::string& bytes) {
        std::istringstream in(bytes);
        common::StateReader reader(in, kMagic, 1);
        reader.open_chunk("BGND");
        target.load_state(reader);
        reader.close_chunk();
    };

    const std::vector<double> full(processor.usable_bins() + 1, 0.5);
    const std::vector<double> in_band(band, 0.5), short_plane(band - 1, 0.5);
    for (const auto& bytes : {stream(full, full),             // a v5-era plane
                              stream(in_band, short_plane)}) {  // re/im mismatch
        BackgroundSubtractor control(band), target(band);
        control.subtract(a);
        target.subtract(a);
        EXPECT_THROW(load(target, bytes), std::runtime_error);
        // Still primed with frame a: the next difference is unchanged.
        EXPECT_EQ(target.subtract(b), control.subtract(b));
    }

    // An unprimed subtractor rejects too and stays unprimed.
    BackgroundSubtractor unprimed(band);
    EXPECT_THROW(load(unprimed, stream(full, full)), std::runtime_error);
    EXPECT_TRUE(unprimed.subtract(a).empty());

    // Planes of exactly the band, or empty ones, are accepted.
    BackgroundSubtractor restored(band);
    load(restored, stream(in_band, in_band));
    EXPECT_EQ(restored.subtract(b).size(), band);
    load(restored, stream({}, {}));
    EXPECT_TRUE(restored.subtract(b).empty());
}

// ---------------------------------------------------------------- contour

std::vector<double> flat_profile(std::size_t bins, double floor) {
    return std::vector<double>(bins, floor);
}

TEST(Contour, PicksClosestStrongPeakNotStrongest) {
    const auto config = test_config();
    ContourTracker tracker(config);
    auto mag = flat_profile(2048, 1.0);
    const double bin_m = 0.108;
    // Multipath at bin 180 is stronger; direct path at bin 120 is closer.
    mag[120] = 8.0;
    mag[180] = 20.0;
    const auto point = tracker.extract(mag, bin_m);
    ASSERT_TRUE(point.detected);
    EXPECT_NEAR(point.round_trip_m, 120 * bin_m, bin_m);
    const auto strongest = tracker.extract_strongest(mag, bin_m);
    EXPECT_NEAR(strongest.round_trip_m, 180 * bin_m, bin_m);
}

TEST(Contour, IgnoresSubThresholdBumps) {
    const auto config = test_config();
    ContourTracker tracker(config);
    auto mag = flat_profile(2048, 1.0);
    mag[90] = 3.0;   // below 5x floor
    mag[200] = 9.0;  // above
    const auto point = tracker.extract(mag, 0.108);
    ASSERT_TRUE(point.detected);
    EXPECT_NEAR(point.round_trip_m, 200 * 0.108, 0.2);
}

TEST(Contour, NoDetectionOnNoise) {
    const auto config = test_config();
    ContourTracker tracker(config);
    witrack::Rng rng(2);
    auto mag = flat_profile(2048, 0.0);
    for (auto& v : mag) v = std::abs(rng.gaussian(1.0));
    const auto point = tracker.extract(mag, 0.108);
    EXPECT_FALSE(point.detected);
}

TEST(Contour, RespectsRangeWindow) {
    auto config = test_config();
    config.min_round_trip_m = 5.0;
    ContourTracker tracker(config);
    auto mag = flat_profile(2048, 1.0);
    mag[10] = 100.0;  // inside the excluded leakage region (1.08 m)
    mag[100] = 10.0;  // 10.8 m: valid
    const auto point = tracker.extract(mag, 0.108);
    ASSERT_TRUE(point.detected);
    EXPECT_NEAR(point.round_trip_m, 100 * 0.108, 0.2);
}

TEST(Contour, MultiPeakReturnsClosestFirst) {
    const auto config = test_config();
    ContourTracker tracker(config);
    auto mag = flat_profile(2048, 1.0);
    mag[100] = 9.0;
    mag[150] = 12.0;
    mag[220] = 10.0;
    const auto peaks = tracker.extract_peaks(mag, 0.108, 3);
    ASSERT_EQ(peaks.size(), 3u);
    EXPECT_LT(peaks[0].round_trip_m, peaks[1].round_trip_m);
    EXPECT_LT(peaks[1].round_trip_m, peaks[2].round_trip_m);
}

TEST(Contour, ExtentSeparatesArmFromBody) {
    const auto config = test_config();
    ContourTracker tracker(config);
    const double bin_m = 0.108;
    // Arm: one narrow blob. Body: energy spread over ~2 m of bins.
    auto arm = flat_profile(2048, 1.0);
    for (int k = 118; k <= 122; ++k) arm[k] = 10.0;
    auto body = flat_profile(2048, 1.0);
    for (int k = 100; k <= 140; ++k) body[k] = 10.0;
    const auto arm_point = tracker.extract(arm, bin_m);
    const auto body_point = tracker.extract(body, bin_m);
    ASSERT_TRUE(arm_point.detected);
    ASSERT_TRUE(body_point.detected);
    EXPECT_LT(arm_point.extent_m, 0.5 * body_point.extent_m);
}

TEST(Contour, GatedSearchFindsWeakEchoNearPrediction) {
    const auto config = test_config();
    ContourTracker tracker(config);
    auto mag = flat_profile(2048, 1.0);
    mag[150] = 3.0;  // below the global threshold (5x floor)
    const auto global = tracker.extract(mag, 0.108);
    EXPECT_FALSE(global.detected);
    const auto gated = tracker.extract_near(mag, 0.108, 150 * 0.108, 0.7, 0.5);
    ASSERT_TRUE(gated.detected);
    EXPECT_NEAR(gated.round_trip_m, 150 * 0.108, 0.2);
}

TEST(Contour, GateClipsToLowBandEdge) {
    // Prediction near the band's low edge (min_round_trip_m = 2.0 -> bin
    // 18 at 0.108 m/bin): the gate clamps to the usable band, so leakage
    // bins below it can never win even when they dwarf the real echo.
    const auto config = test_config();
    ContourTracker tracker(config);
    auto mag = flat_profile(2048, 1.0);
    mag[5] = 1000.0;  // TX leakage inside the unclipped gate window
    mag[20] = 3.0;    // the person, just inside the band
    const auto gated = tracker.extract_near(mag, 0.108, 2.2, 0.7, 0.5);
    ASSERT_TRUE(gated.detected);
    EXPECT_NEAR(gated.round_trip_m, 20 * 0.108, 0.2);
}

TEST(Contour, GateClipsToHighBandEdge) {
    // Prediction beyond kMaxRoundTripM (28.0 -> last usable bin 259):
    // the gate clamps to the band's top; a monster peak past the band is
    // never considered, and an in-band echo at the clipped edge still is.
    const auto config = test_config();
    ContourTracker tracker(config);
    auto mag = flat_profile(2048, 1.0);
    mag[258] = 3.0;    // weak echo at the top of the band
    mag[262] = 1000.0; // inside the unclipped gate, beyond kMaxRoundTripM
    const auto gated = tracker.extract_near(mag, 0.108, 27.9, 0.7, 0.5);
    ASSERT_TRUE(gated.detected);
    EXPECT_NEAR(gated.round_trip_m, 258 * 0.108, 0.2);
}

TEST(Contour, GateFullyOutsideBandDoesNotDetect) {
    const auto config = test_config();
    ContourTracker tracker(config);
    auto mag = flat_profile(2048, 1.0);
    mag[5] = 1000.0;  // only energy sits below the band
    // Prediction so far below min_round_trip_m that the clamped window is
    // empty: no detection, no out-of-band read.
    const auto gated = tracker.extract_near(mag, 0.108, 0.5, 0.5, 0.5);
    EXPECT_FALSE(gated.detected);
}

TEST(Contour, GateAllBinsBelowThresholdReportsFloorOnly) {
    const auto config = test_config();
    ContourTracker tracker(config);
    const auto mag = flat_profile(2048, 1.0);  // nothing above 0.5 * 5x floor
    const auto gated = tracker.extract_near(mag, 0.108, 10.0, 0.7, 0.5);
    EXPECT_FALSE(gated.detected);
    EXPECT_GT(gated.noise_floor, 0.0);  // the floor is still measured
    EXPECT_EQ(gated.power, 0.0);
}

TEST(Contour, GateRelaxFactorScalesTheThreshold) {
    // Echo at 3x floor: the global threshold is 5x, so detection hinges on
    // relax -- 0.5 (threshold 2.5) finds it, 0.8 (threshold 4.0) does not.
    const auto config = test_config();
    ContourTracker tracker(config);
    auto mag = flat_profile(2048, 1.0);
    mag[150] = 3.0;
    EXPECT_TRUE(tracker.extract_near(mag, 0.108, 150 * 0.108, 0.7, 0.5).detected);
    EXPECT_FALSE(tracker.extract_near(mag, 0.108, 150 * 0.108, 0.7, 0.8).detected);
}

TEST(Contour, SubEightBinProfilesNeverDetect) {
    // Profiles below the 8-bin minimum: every entry point returns "no
    // detection" (or nothing) instead of reading a degenerate band.
    const auto config = test_config();
    ContourTracker tracker(config);
    for (std::size_t bins = 0; bins < 8; ++bins) {
        const auto mag = flat_profile(bins, 100.0);
        EXPECT_FALSE(tracker.extract(mag, 0.108).detected) << bins;
        EXPECT_FALSE(tracker.extract_strongest(mag, 0.108).detected) << bins;
        EXPECT_FALSE(tracker.extract_near(mag, 0.108, 0.3, 0.5).detected) << bins;
        EXPECT_TRUE(tracker.extract_peaks(mag, 0.108, 3).empty()) << bins;
    }
}

TEST(Contour, StrongestAllBelowThresholdReportsFloorOnly) {
    const auto config = test_config();
    ContourTracker tracker(config);
    const auto mag = flat_profile(2048, 1.0);
    const auto point = tracker.extract_strongest(mag, 0.108);
    EXPECT_FALSE(point.detected);
    EXPECT_GT(point.noise_floor, 0.0);
}

// ---------------------------------------------------------------- denoise

ContourPoint detection(double round_trip) {
    ContourPoint p;
    p.detected = true;
    p.round_trip_m = round_trip;
    p.power = 10.0;
    p.noise_floor = 1.0;
    return p;
}

TEST(Denoise, HoldsThroughSilence) {
    const auto config = test_config();
    TofDenoiser denoiser(config);
    denoiser.update(detection(8.0), 0.0125);
    // Person stops: no detections for a while (interpolation, Section 4.4).
    for (int i = 0; i < 100; ++i) {
        const auto value = denoiser.update(ContourPoint{}, 0.0125);
        ASSERT_TRUE(value.has_value());
        EXPECT_NEAR(*value, 8.0, 0.2);
    }
}

TEST(Denoise, RejectsImpossibleJump) {
    const auto config = test_config();
    TofDenoiser denoiser(config);
    denoiser.update(detection(8.0), 0.0125);
    const auto value = denoiser.update(detection(14.0), 0.0125);  // 6 m jump
    ASSERT_TRUE(value.has_value());
    EXPECT_NEAR(*value, 8.0, 0.2);
    EXPECT_EQ(denoiser.outlier_streak(), 1u);
}

TEST(Denoise, ReacquiresAfterPersistentJump) {
    const auto config = test_config();
    TofDenoiser denoiser(config);
    denoiser.update(detection(8.0), 0.0125);
    std::optional<double> value;
    for (std::size_t i = 0; i <= kReacquireFrames; ++i)
        value = denoiser.update(detection(14.0), 0.0125);
    ASSERT_TRUE(value.has_value());
    EXPECT_NEAR(*value, 14.0, 0.3);
}

TEST(Denoise, CloserEchoRelocksOnSixthFrame) {
    // A persistent echo 3 m closer than the track (beyond the 1.2 m jump
    // limit) is dynamic multipath the track was riding: it re-locks on the
    // 6th consecutive frame, not the 5th, far sooner than the 40 frames a
    // farther echo needs.
    const auto config = test_config();
    TofDenoiser denoiser(config);
    denoiser.update(detection(8.0), 0.0125);
    std::optional<double> value;
    for (std::size_t frame = 1; frame <= 5; ++frame) {
        value = denoiser.update(detection(5.0), 0.0125);
        ASSERT_TRUE(value.has_value());
        EXPECT_NEAR(*value, 8.0, 0.2) << "frame " << frame;
        EXPECT_EQ(denoiser.outlier_streak(), frame);
    }
    value = denoiser.update(detection(5.0), 0.0125);
    ASSERT_TRUE(value.has_value());
    EXPECT_NEAR(*value, 5.0, 0.2);
    EXPECT_EQ(denoiser.outlier_streak(), 0u);
}

TEST(Denoise, SmoothsJitter) {
    const auto config = test_config();
    TofDenoiser denoiser(config);
    witrack::Rng rng(3);
    double max_dev = 0.0;
    for (int i = 0; i < 400; ++i) {
        const auto v = denoiser.update(detection(10.0 + rng.gaussian(0.15)), 0.0125);
        if (i > 50) max_dev = std::max(max_dev, std::abs(*v - 10.0));
    }
    EXPECT_LT(max_dev, 0.15);  // filtered excursions stay below raw sigma
}

TEST(Denoise, TracksWalkingSpeedRamp) {
    const auto config = test_config();
    TofDenoiser denoiser(config);
    double rt = 6.0;
    std::optional<double> value;
    for (int i = 0; i < 400; ++i) {
        rt += 2.0 * 1.0 * 0.0125;  // walking away at 1 m/s (round trip 2x)
        value = denoiser.update(detection(rt), 0.0125);
    }
    ASSERT_TRUE(value.has_value());
    EXPECT_NEAR(*value, rt, 0.1);
}

// --------------------------------------------------------------- localize

TEST(Localize, CompensatesSurfaceDepth) {
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);
    auto config = test_config();
    config.surface_depth_m = 0.11;
    Localizer localizer(array, config);

    // Round trips to the body *surface*; the centre is 11 cm deeper.
    const Vec3 surface{0.0, 5.0, 1.0};
    std::vector<double> rts;
    for (const auto& rx : array.rx)
        rts.push_back(surface.distance_to(array.tx) + surface.distance_to(rx));
    const auto point = localizer.locate_round_trips(rts, 0.0, true);
    ASSERT_TRUE(point.has_value());
    EXPECT_NEAR(point->position.y, 5.11, 0.02);

    const auto raw = localizer.locate_round_trips(rts, 0.0, false);
    EXPECT_NEAR(raw->position.y, 5.0, 0.01);
}

TEST(Localize, RequiresAllAntennas) {
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);
    Localizer localizer(array, test_config());
    TofFrame frame;
    frame.antennas.resize(3);
    frame.antennas[0].denoised_m = 10.0;
    frame.antennas[1].denoised_m = 10.1;
    // antenna 2 missing
    EXPECT_FALSE(localizer.locate(frame).has_value());
}

TEST(Localize, ClampsElevationToPhysicalBand) {
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);
    Localizer localizer(array, test_config());
    // Inconsistent distances drive z far negative; the clamp keeps it sane.
    const auto point = localizer.locate_round_trips({9.0, 9.0, 10.8}, 0.0, false);
    ASSERT_TRUE(point.has_value());
    EXPECT_GE(point->position.z, 0.0);
}

// ------------------------------------------------------------ smoothing

TEST(Smooth, DegradedFixGatedOnInnovationAndDeweighted) {
    // A healthy track walking at a constant 0.4 m/s along x.
    SmoothStep healthy(test_config());
    const double dt = 0.0125;
    double t = 0.0;
    TrackPoint fix;
    for (int i = 0; i < 200; ++i, t += dt) {
        fix.time_s = t;
        fix.position = {0.4 * t, 5.0, 1.0};
        ASSERT_TRUE(healthy.run(fix, t).has_value());
    }
    const Vec3 truth{0.4 * t, 5.0, 1.0};  // where the walk is next frame
    auto run_copy = [&](const Vec3& offset, double health) {
        SmoothStep step = healthy;
        TrackPoint degraded;
        degraded.time_s = t;
        degraded.position = truth + offset;
        const auto out = step.run(degraded, t, health);
        EXPECT_TRUE(out.has_value());
        return out->position;
    };

    // At health 0.5 a fix more than 0.8 m from the constant-velocity
    // prediction is rejected: the output is the prediction, whatever the fix.
    const Vec3 coasted = run_copy({1.0, 0.0, 0.0}, 0.5);
    const Vec3 coasted_far = run_copy({0.0, -3.0, 0.5}, 0.5);
    EXPECT_EQ(coasted.x, coasted_far.x);
    EXPECT_EQ(coasted.y, coasted_far.y);
    EXPECT_EQ(coasted.z, coasted_far.z);
    EXPECT_LT(coasted.distance_to(truth), 0.01);

    // Within 0.8 m the fix is fused, but at health 0.5 it moves the track
    // less than the same fix does at health 1.0.
    const Vec3 offset{0.0, 0.5, 0.0};
    const double moved_degraded = run_copy(offset, 0.5).distance_to(coasted);
    const double moved_healthy = run_copy(offset, 1.0).distance_to(coasted);
    EXPECT_GT(moved_degraded, 0.0);
    EXPECT_LT(moved_degraded, moved_healthy);
}

}  // namespace
}  // namespace witrack::core
