// Microbenchmarks for the substrate hot paths: the radix-4 FFT kernel (dense,
// and pruned at the production shape) and the pruned r2c range transform,
// baseband synthesis, receiver noise generation, channel path enumeration,
// contour extraction, the Kalman filters, the streaming fall detector, and
// the WTNF transport (CRC-32, packing a frame into datagrams, reassembling
// it in a NetSource).
#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <random>

#include "common/random.hpp"
#include "common/serialize.hpp"
#include "core/contour.hpp"
#include "core/fall.hpp"
#include "core/tracker.hpp"
#include "dsp/fft.hpp"
#include "dsp/kalman.hpp"
#include "engine/sim_source.hpp"
#include "hw/mixer.hpp"
#include "net/datagram_source.hpp"
#include "net/frame_protocol.hpp"
#include "net/net_source.hpp"
#include "rf/channel.hpp"
#include "sim/environment.hpp"
#include "sim/scenario.hpp"

using namespace witrack;

namespace {

void BM_FftPow2Kernel(benchmark::State& state) {
    // The SoA radix-4 kernel, dense; caller-owned planes, so the loop is
    // allocation-free.
    const auto n = static_cast<std::size_t>(state.range(0));
    const dsp::kernels::Pow2Kernel plan(n);
    std::vector<double> re(n), im(n), wr(n), wi(n);
    for (auto _ : state) {
        std::fill(re.begin(), re.end(), 1.0);
        std::fill(im.begin(), im.end(), -0.5);
        plan.forward(re.data(), im.data(), wr.data(), wi.data());
        benchmark::DoNotOptimize(re.data());
    }
    state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_FftPow2Kernel)->Arg(1024)->Arg(4096)->Arg(16384)->Complexity();

void BM_Pow2KernelPruned(benchmark::State& state) {
    // The production kernel shape: the 2048-point half transform of a
    // 2500-sample sweep, whose packed input has 1250 live entries (the
    // pruned first stage). Arg is the transform size.
    const auto n = static_cast<std::size_t>(state.range(0));
    const std::size_t live = n * 1250 / 2048;
    const dsp::kernels::Pow2Kernel plan(n, live);
    std::vector<double> re(n), im(n), wr(n), wi(n);
    for (auto _ : state) {
        std::fill(re.begin(), re.begin() + static_cast<std::ptrdiff_t>(live), 1.0);
        std::fill(im.begin(), im.begin() + static_cast<std::ptrdiff_t>(live), -0.5);
        plan.forward(re.data(), im.data(), wr.data(), wi.data());
        benchmark::DoNotOptimize(re.data());
    }
}
BENCHMARK(BM_Pow2KernelPruned)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RealFftHalfSpectrum(benchmark::State& state) {
    // The production r2c shape: 2500 windowed real samples zero-padded into
    // a 4096-point transform (power-of-two sweeps run dense). Arg is the
    // sweep length.
    const auto nz = static_cast<std::size_t>(state.range(0));
    std::vector<double> input(nz);
    for (std::size_t i = 0; i < nz; ++i)
        input[i] = std::sin(0.05 * static_cast<double>(i));
    const std::vector<double> window(nz, 1.0);
    const dsp::RealFft plan(nz);
    dsp::FftScratch scratch;
    std::vector<double> out_re, out_im;
    for (auto _ : state) {
        plan.forward(input, window, out_re, out_im, scratch);
        benchmark::DoNotOptimize(out_re.data());
    }
}
BENCHMARK(BM_RealFftHalfSpectrum)->Arg(2500)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_MixerSynthesis(benchmark::State& state) {
    const auto paths_count = static_cast<std::size_t>(state.range(0));
    FmcwParams fmcw;
    hw::DechirpMixer mixer(fmcw);
    std::vector<rf::PropagationPath> paths(paths_count);
    for (std::size_t i = 0; i < paths.size(); ++i) {
        paths[i].round_trip_m = 5.0 + static_cast<double>(i);
        paths[i].amplitude = 1e-6;
    }
    std::vector<double> out(fmcw.samples_per_sweep());
    for (auto _ : state) {
        std::fill(out.begin(), out.end(), 0.0);
        mixer.synthesize(paths, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["paths"] = static_cast<double>(paths_count);
}
BENCHMARK(BM_MixerSynthesis)->Arg(1)->Arg(8)->Arg(32)->Arg(40)->Unit(benchmark::kMicrosecond);

void BM_GaussianNoise(benchmark::State& state) {
    // One sweep's receiver noise: 2500 draws added in place, as the front
    // end does per antenna per sweep.
    FmcwParams fmcw;
    Rng rng(1);
    std::vector<double> sweep(fmcw.samples_per_sweep(), 0.0);
    for (auto _ : state) {
        rng.add_gaussian(sweep, 1e-7);
        benchmark::DoNotOptimize(sweep.data());
    }
    state.counters["draws"] = static_cast<double>(sweep.size());
}
BENCHMARK(BM_GaussianNoise)->Unit(benchmark::kMicrosecond);

void BM_ChannelBodyPaths(benchmark::State& state) {
    rf::ChannelConfig config;
    rf::Antenna tx{{0, 0, 1.3}, {0, 1, 0}, {}};
    std::vector<rf::Antenna> rx = {rf::Antenna{{-1, 0, 1.3}, {0, 1, 0}, {}},
                                   rf::Antenna{{1, 0, 1.3}, {0, 1, 0}, {}},
                                   rf::Antenna{{0, 0, 0.3}, {0, 1, 0}, {}}};
    rf::Scene scene;
    for (int i = 0; i < 5; ++i)
        scene.walls.emplace_back(geom::Vec3{0, 2.0 + i, 1.5}, geom::Vec3{0, 1, 0},
                                 geom::Vec3{1, 0, 0}, 4.0, 1.5,
                                 rf::materials::sheetrock());
    rf::Channel channel(config, tx, rx, scene);
    std::vector<rf::BodyScatterer> body(7);
    for (std::size_t i = 0; i < body.size(); ++i)
        body[i] = {{0.5, 5.0 + 0.1 * static_cast<double>(i), 1.0}, 0.5, 0.0};
    for (auto _ : state) {
        for (std::size_t rx_i = 0; rx_i < 3; ++rx_i)
            benchmark::DoNotOptimize(channel.body_paths(rx_i, body));
    }
}
BENCHMARK(BM_ChannelBodyPaths)->Unit(benchmark::kMicrosecond);

void BM_ContourExtraction(benchmark::State& state) {
    core::PipelineConfig config;
    core::ContourTracker tracker(config);
    std::mt19937 rng(1);
    std::normal_distribution<double> dist(0.0, 1.0);
    std::vector<double> magnitude(2048);
    for (auto& v : magnitude) v = std::abs(dist(rng));
    magnitude[300] = 40.0;
    for (auto _ : state)
        benchmark::DoNotOptimize(tracker.extract(magnitude, 0.108));
}
BENCHMARK(BM_ContourExtraction)->Unit(benchmark::kMicrosecond);

void BM_ScalarKalman(benchmark::State& state) {
    dsp::ScalarKalman kf(1.5, 0.15);
    double v = 10.0;
    for (auto _ : state) {
        v += 0.01;
        benchmark::DoNotOptimize(kf.update(v, 0.0125));
    }
}
BENCHMARK(BM_ScalarKalman);

void BM_PositionKalman(benchmark::State& state) {
    dsp::PositionKalman kf(2.0, 0.14);
    double v = 0.0;
    for (auto _ : state) {
        v += 0.01;
        benchmark::DoNotOptimize(kf.update({v, 5.0, 1.0}, 0.0125));
    }
}
BENCHMARK(BM_PositionKalman);

/// The raw track of one recorded 12 s walk (simulated once, through the
/// whole pipeline, as perfbench's sessions walk), and a copy with 36% of
/// its points dropped, as a lossy network feed delivers it.
const std::vector<core::TrackPoint>& walk_track(bool thinned) {
    static const auto tracks = [] {
        sim::ScenarioConfig config;
        config.fast_capture = true;
        config.seed = 5;
        sim::Scenario scenario(
            config, std::make_unique<sim::RandomWaypointWalk>(
                        sim::make_lab_environment().bounds, 12.0, Rng(5), 0.5, 1.3, 0.2,
                        0.57 * sim::HumanParams{}.height_m));
        core::PipelineConfig pipeline;
        pipeline.fmcw = config.fmcw;
        core::WiTrackTracker tracker(pipeline, scenario.array());
        sim::Scenario::Frame frame;
        while (scenario.next(frame)) tracker.process_frame(frame.sweeps, frame.time_s);
        std::array<std::vector<core::TrackPoint>, 2> out{tracker.raw_track(), {}};
        Rng rng(36);
        for (const auto& point : out[0])
            if (rng.uniform() >= 0.36) out[1].push_back(point);
        return out;
    }();
    return tracks[thinned ? 1 : 0];
}

void BM_FallDetectorPush(benchmark::State& state) {
    // One push per iteration, looping the walk with its clock carried on,
    // so the 6 s window stays full after the first lap's first 6 s.
    const auto& track = walk_track(state.range(0) != 0);
    const double lap_s = track.back().time_s - track.front().time_s + 0.0125;
    core::FallDetector detector;
    std::size_t i = 0;
    double offset = 0.0;
    for (auto _ : state) {
        core::TrackPoint point = track[i];
        point.time_s += offset;
        benchmark::DoNotOptimize(detector.push(point));
        if (++i == track.size()) {
            i = 0;
            offset += lap_s;
        }
    }
}
BENCHMARK(BM_FallDetectorPush)->ArgName("thinned")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_Crc32(benchmark::State& state) {
    // Arg bytes through common::crc32; 1400 is one default-MTU datagram.
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(state.range(0)));
    Rng rng(9);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    for (auto _ : state)
        benchmark::DoNotOptimize(common::crc32(bytes.data(), bytes.size()));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1400);

/// One simulated frame at the default capture: the 61 676-byte body, 45
/// datagrams at the default MTU, that perfbench's net-lossy sessions ship.
const engine::Frame& sim_frame() {
    static const engine::Frame frame = [] {
        engine::EngineConfig config;
        config.with_fast_capture(true).with_seed(3);
        engine::SimSource source(config, std::make_unique<sim::LineWalkScript>(
                                             geom::Vec3{-1.0, 5, 0}, geom::Vec3{1.0, 5, 0},
                                             1.0, 1.0));
        engine::Frame f;
        source.next(f);
        return f;
    }();
    return frame;
}

void BM_PackFrame(benchmark::State& state) {
    const engine::Frame& frame = sim_frame();
    std::uint64_t seq = 0;
    std::size_t bytes = 0;
    for (auto _ : state) {
        const auto datagrams = net::pack_frame(frame, 1, seq++);
        bytes = 0;
        for (const auto& datagram : datagrams) bytes += datagram.size();
        benchmark::DoNotOptimize(datagrams.data());
    }
    state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_PackFrame)->Unit(benchmark::kMicrosecond);

void BM_NetSourceNext(benchmark::State& state) {
    // One frame's datagrams queued (untimed), then NetSource::next: CRC
    // checks, reassembly and the body decode into a reused Frame.
    const engine::Frame& frame = sim_frame();
    auto queue = std::make_unique<net::QueueDatagramSource>();
    net::QueueDatagramSource* pending = queue.get();
    net::NetSourceConfig config;
    config.session_token = 1;
    net::NetSource source(std::move(queue), config);
    engine::Frame out;
    std::uint64_t seq = 0;
    for (auto _ : state) {
        state.PauseTiming();
        for (auto& datagram : net::pack_frame(frame, 1, seq++))
            pending->push(std::move(datagram));
        state.ResumeTiming();
        if (!source.next(out)) state.SkipWithError("NetSource ended the stream");
    }
}
BENCHMARK(BM_NetSourceNext)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
