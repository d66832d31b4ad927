// FrameBuffer contract tests: layout round-trips, stride/indexing edge
// cases, bit-for-bit spectral equivalence between the per-antenna and
// batched processing entry points, steady-state allocation freedom of
// SweepProcessor::process_into, and WiTrackTracker determinism across
// instances fed the same FrameBuffer stream.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <random>
#include <vector>

#include "common/frame_buffer.hpp"
#include "core/background.hpp"
#include "core/contour.hpp"
#include "core/range_fft.hpp"
#include "core/tof.hpp"
#include "core/tracker.hpp"
#include "sim/scenario.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every heap allocation in this binary bumps the
// counter, so a test can assert that a region of code performed none.
//
// GCC pairs the visible std::free bodies below with the library declaration
// of operator new when inlining them into callers and reports a mismatch;
// the replacement set is in fact consistent (malloc in, free out).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::size_t> g_allocations{0};
}

void* operator new(std::size_t size) {
    ++g_allocations;
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace witrack {
namespace {

std::vector<std::vector<std::vector<double>>> make_nested(std::size_t sweeps,
                                                          std::size_t num_rx,
                                                          std::size_t samples,
                                                          unsigned seed = 7) {
    std::mt19937 rng(seed);
    std::normal_distribution<double> dist(0.0, 1.0);
    std::vector<std::vector<std::vector<double>>> nested(sweeps);
    for (auto& sweep : nested) {
        sweep.resize(num_rx);
        for (auto& rx : sweep) {
            rx.resize(samples);
            for (auto& v : rx) v = dist(rng);
        }
    }
    return nested;
}

// ------------------------------------------------------------------ layout

TEST(FrameBufferTest, RoundTripsNestedLayout) {
    const auto nested = make_nested(5, 3, 17);
    const auto frame = FrameBuffer::from_nested(nested);

    EXPECT_EQ(frame.num_sweeps(), 5u);
    EXPECT_EQ(frame.num_rx(), 3u);
    EXPECT_EQ(frame.samples_per_sweep(), 17u);
    EXPECT_EQ(frame.size(), 5u * 3u * 17u);

    for (std::size_t s = 0; s < 5; ++s)
        for (std::size_t rx = 0; rx < 3; ++rx)
            for (std::size_t i = 0; i < 17; ++i)
                ASSERT_EQ(frame.at(rx, s, i), nested[s][rx][i]);

    EXPECT_EQ(frame.to_nested(), nested);
}

TEST(FrameBufferTest, AntennaSpanIsContiguousAndSweepMajor) {
    const auto nested = make_nested(4, 2, 9);
    const auto frame = FrameBuffer::from_nested(nested);

    for (std::size_t rx = 0; rx < 2; ++rx) {
        const auto block = frame.antenna(rx);
        ASSERT_EQ(block.size(), 4u * 9u);
        for (std::size_t s = 0; s < 4; ++s) {
            const auto row = frame.sweep(rx, s);
            EXPECT_EQ(row.data(), block.data() + s * 9);  // no gaps between sweeps
            for (std::size_t i = 0; i < 9; ++i)
                ASSERT_EQ(row[i], nested[s][rx][i]);
        }
    }
}

TEST(FrameBufferTest, IndexingEdgeCases) {
    FrameBuffer frame(2, 3, 8);
    EXPECT_THROW(frame.sweep(2, 0), std::out_of_range);
    EXPECT_THROW(frame.sweep(0, 3), std::out_of_range);
    EXPECT_THROW(frame.antenna(2), std::out_of_range);
    EXPECT_THROW(frame.at(0, 0, 8), std::out_of_range);
    EXPECT_NO_THROW(frame.at(1, 2, 7));

    FrameBuffer empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.num_rx(), 0u);
    EXPECT_THROW(empty.sweep(0, 0), std::out_of_range);
}

TEST(FrameBufferTest, RejectsRaggedNestedInput) {
    auto ragged_rx = make_nested(3, 2, 8);
    ragged_rx[1].pop_back();
    EXPECT_THROW(FrameBuffer::from_nested(ragged_rx), std::invalid_argument);

    auto ragged_len = make_nested(3, 2, 8);
    ragged_len[2][1].push_back(0.0);
    EXPECT_THROW(FrameBuffer::from_nested(ragged_len), std::invalid_argument);

    EXPECT_TRUE(FrameBuffer::from_nested({}).empty());
}

TEST(FrameBufferTest, ResizeReusesStorageAndZeroes) {
    FrameBuffer frame(3, 5, 100);
    frame.at(2, 4, 99) = 42.0;
    const double* before = frame.data();
    frame.resize(3, 5, 100);
    EXPECT_EQ(frame.data(), before);  // same capacity, reused in place
    EXPECT_EQ(frame.at(2, 4, 99), 0.0);
}

// ------------------------------------------------------- spectra identity

TEST(FrameBufferTest, SpectraBitForBitAcrossEntryPoints) {
    FmcwParams fmcw;
    fmcw.sweep_duration_s = 250e-6;  // 250 samples: fast but non-trivial
    const std::size_t n = fmcw.samples_per_sweep();
    const auto frame = FrameBuffer::from_nested(make_nested(5, 3, n));

    core::SweepProcessor processor(fmcw);
    std::vector<core::RangeProfile> batched;
    processor.process_frame_into(frame, batched);
    ASSERT_EQ(batched.size(), 3u);

    for (std::size_t rx = 0; rx < 3; ++rx) {
        core::RangeProfile contiguous;
        processor.process_into(frame.antenna(rx), frame.num_sweeps(), contiguous);

        ASSERT_EQ(contiguous.spectrum_size(), batched[rx].spectrum_size());
        EXPECT_EQ(contiguous.bin_round_trip_m, batched[rx].bin_round_trip_m);
        EXPECT_EQ(contiguous.usable_bins, batched[rx].usable_bins);
        // Bit-for-bit, per SoA plane: both paths run identical arithmetic.
        EXPECT_EQ(0, std::memcmp(contiguous.re.data(), batched[rx].re.data(),
                                 contiguous.re.size() * sizeof(double)));
        EXPECT_EQ(0, std::memcmp(contiguous.im.data(), batched[rx].im.data(),
                                 contiguous.im.size() * sizeof(double)));
    }
}

// ------------------------------------------------------- zero allocations

TEST(FrameBufferTest, SweepProcessorSteadyStateDoesNotAllocate) {
    FmcwParams fmcw;
    fmcw.sweep_duration_s = 250e-6;
    const std::size_t n = fmcw.samples_per_sweep();
    FrameBuffer frame = FrameBuffer::from_nested(make_nested(5, 3, n));

    // The range transform must be allocation-free once buffers are warm:
    // the zero-padded pruned r2c kernel path (250 live samples into a
    // 256-point plan). This covers the SoA scratch layout (packing planes +
    // kernel ping-pong planes) and the fused background
    // difference-and-store.
    core::SweepProcessor processor(fmcw);
    core::PipelineConfig pipeline;
    pipeline.fmcw = fmcw;
    core::BackgroundSubtractor background(core::tracked_band(
        pipeline, processor.usable_bins(), processor.bin_round_trip_m()));
    core::RangeProfile profile;
    std::vector<double> magnitude;
    for (int warm = 0; warm < 3; ++warm) {
        processor.process_into(frame.antenna(0), frame.num_sweeps(), profile);
        background.subtract_into(profile, magnitude);
    }

    const std::size_t before = g_allocations.load();
    for (int pass = 0; pass < 10; ++pass) {
        processor.process_into(frame.antenna(0), frame.num_sweeps(), profile);
        background.subtract_into(profile, magnitude);
    }
    EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(FrameBufferTest, FullAnalysisTailSteadyStateDoesNotAllocate) {
    // The whole post-FFT chain -- background subtract -> contour extraction
    // -> gated re-detection -> denoise -> persistent TofFrame fill -- must
    // be allocation-free once warm. Alternating two distinct frames keeps
    // the frame-diff magnitudes nonzero so the contour, gate, and denoiser
    // paths all run.
    FmcwParams fmcw;
    fmcw.sweep_duration_s = 250e-6;
    const std::size_t n = fmcw.samples_per_sweep();
    const FrameBuffer even = FrameBuffer::from_nested(make_nested(5, 2, n, 7));
    const FrameBuffer odd = FrameBuffer::from_nested(make_nested(5, 2, n, 13));

    core::PipelineConfig pipeline;
    pipeline.fmcw = fmcw;
    core::TofEstimator estimator(pipeline, 2);
    double t = 0.0;
    for (int warm = 0; warm < 4; ++warm, t += 0.01)
        estimator.process_frame(warm % 2 != 0 ? odd : even, t);

    const std::size_t before = g_allocations.load();
    for (int pass = 0; pass < 10; ++pass, t += 0.01) {
        const auto& out = estimator.process_frame(pass % 2 != 0 ? odd : even, t);
        ASSERT_EQ(out.antennas.size(), 2u);
    }
    EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(FrameBufferTest, GatedRedetectionWithWarmScratchDoesNotAllocate) {
    // The gated re-detection pass in isolation: with a warm ContourScratch,
    // extract + extract_near against the same profile must not allocate and
    // must reuse the frame's cached noise floor (same band -> same floor).
    std::mt19937 rng(17);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    std::vector<double> magnitude(256);
    for (auto& v : magnitude) v = 0.05 * dist(rng);  // low noise floor
    for (std::size_t i = 95; i < 115; ++i) {         // one strong body echo
        const double d = static_cast<double>(i) - 105.0;
        magnitude[i] += 5.0 * std::exp(-d * d / 18.0);
    }
    const double bin_m = 0.0375;

    core::PipelineConfig pipeline;
    const core::ContourTracker tracker(pipeline);
    core::ContourScratch scratch;
    scratch.start_frame();
    const auto warm = tracker.extract(magnitude, bin_m, scratch);
    ASSERT_TRUE(warm.detected);
    tracker.extract_near(magnitude, bin_m, warm.round_trip_m, 0.7, scratch);

    const std::size_t before = g_allocations.load();
    for (int pass = 0; pass < 10; ++pass) {
        scratch.start_frame();
        const auto point = tracker.extract(magnitude, bin_m, scratch);
        const auto gated = tracker.extract_near(magnitude, bin_m,
                                                point.round_trip_m, 0.7, scratch);
        EXPECT_TRUE(point.detected);
        EXPECT_TRUE(gated.detected);
        // Cache hit: the gated pass reuses the frame's full-band floor.
        EXPECT_EQ(gated.noise_floor, point.noise_floor);
    }
    EXPECT_EQ(g_allocations.load() - before, 0u);
}

// -------------------------------------------------- tracker determinism

TEST(FrameBufferTest, TrackerDeterministicAcrossInstances) {
    sim::ScenarioConfig config;
    config.seed = 99;
    config.fast_capture = true;  // keep the suite quick
    sim::Scenario scenario(config, std::make_unique<sim::LineWalkScript>(
                                       geom::Vec3{-1, 5, 0}, geom::Vec3{1, 5, 0},
                                       1.0, 1.0));
    std::vector<sim::Scenario::Frame> frames;
    sim::Scenario::Frame frame;
    while (scenario.next(frame)) frames.push_back(frame);
    ASSERT_GT(frames.size(), 10u);

    core::PipelineConfig pipeline;
    pipeline.fmcw = config.fmcw;
    core::WiTrackTracker first(pipeline, scenario.array());
    core::WiTrackTracker second(pipeline, scenario.array());

    for (const auto& f : frames) {
        const auto a = first.process_frame(f.sweeps, f.time_s);
        const auto b = second.process_frame(f.sweeps, f.time_s);
        ASSERT_EQ(a.raw.has_value(), b.raw.has_value());
        ASSERT_EQ(a.smoothed.has_value(), b.smoothed.has_value());
        if (a.smoothed) {
            // Identical, not just close: no hidden state outside the inputs
            // may influence the pipeline (replay determinism depends on it).
            EXPECT_EQ(a.smoothed->position.x, b.smoothed->position.x);
            EXPECT_EQ(a.smoothed->position.y, b.smoothed->position.y);
            EXPECT_EQ(a.smoothed->position.z, b.smoothed->position.z);
        }
    }

    EXPECT_EQ(first.frames_processed(), frames.size());
    EXPECT_GT(first.frame_latency().mean_s(), 0.0);
    EXPECT_GE(first.frame_latency().max_s, first.frame_latency().mean_s());
    EXPECT_EQ(first.track().size(), second.track().size());
    EXPECT_EQ(first.raw_track().size(), second.raw_track().size());
}

}  // namespace
}  // namespace witrack
