// Reproduces the paper's real-time claim (Section 7): "Software processing
// has a total delay less than 75 ms between when the signal is received and
// a corresponding 3D location is output."
//
// google-benchmark over the per-frame pipeline (range FFT x3 antennas,
// background subtraction, contour, denoise, 3D solve, smoothing) plus the
// individual stages. Per-step latency percentiles of a running fleet come
// from FleetStats (the daemon's STATS scrape), not from this program.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/pipeline_steps.hpp"
#include "core/tracker.hpp"
#include "engine/engine.hpp"
#include "engine/sim_source.hpp"
#include "geom/solver.hpp"
#include "sim/scenario.hpp"

using namespace witrack;

namespace {

/// Pre-capture a few frames of realistic sweeps once.
const std::vector<sim::Scenario::Frame>& captured_frames() {
    static const auto frames = [] {
        sim::ScenarioConfig config;
        config.through_wall = true;
        config.seed = 33;
        sim::Scenario scenario(config, std::make_unique<sim::LineWalkScript>(
                                           geom::Vec3{-1, 5, 0}, geom::Vec3{1, 5, 0},
                                           2.0, 1.0));
        std::vector<sim::Scenario::Frame> out;
        sim::Scenario::Frame frame;
        while (scenario.next(frame)) out.push_back(frame);
        return out;
    }();
    return frames;
}

void BM_PipelineFrameTofOnly(benchmark::State& state) {
    // Lazy schedule: only the TOF step runs -- the per-frame saving every
    // TOF-only workload (multi-person, pointing) banks automatically.
    const auto& frames = captured_frames();
    core::PipelineConfig pipeline;
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);
    core::WiTrackTracker tracker(pipeline, array);
    std::size_t i = 0;
    double t = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tracker.process_frame(frames[i % frames.size()].sweeps, t,
                                  core::PipelineOutputs::kTof));
        ++i;
        t += 0.0125;
    }
}
BENCHMARK(BM_PipelineFrameTofOnly)->Unit(benchmark::kMillisecond);

void BM_FullPipelineFrame(benchmark::State& state) {
    const auto& frames = captured_frames();
    core::PipelineConfig pipeline;
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);
    core::WiTrackTracker tracker(pipeline, array);
    std::size_t i = 0;
    double t = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tracker.process_frame(frames[i % frames.size()].sweeps, t));
        ++i;
        t += 0.0125;
    }
    state.counters["budget_ms"] = 75.0;  // the paper's latency budget
}
BENCHMARK(BM_FullPipelineFrame)->Unit(benchmark::kMillisecond);

void BM_EngineStep(benchmark::State& state) {
    // Full engine step (source -> tracker -> event publish) against a
    // subscribed bus: measures the engine's overhead relative to the bare
    // tracker hot path above. Source capture dominates; the engine layer
    // itself adds one virtual call and one event dispatch per frame.
    engine::EngineConfig config;
    config.with_seed(33).with_fast_capture(true);
    std::size_t updates = 0;
    for (auto _ : state) {
        state.PauseTiming();
        engine::Engine eng(config, std::make_unique<engine::SimSource>(
                                       config, std::make_unique<sim::LineWalkScript>(
                                                   geom::Vec3{-1, 5, 0},
                                                   geom::Vec3{1, 5, 0}, 2.0, 1.0)));
        eng.bus().subscribe<engine::TrackUpdateEvent>(
            [&](const engine::TrackUpdateEvent&) { ++updates; });
        state.ResumeTiming();
        while (eng.step()) {
        }
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<std::int64_t>(eng.frames_processed()));
    }
    benchmark::DoNotOptimize(updates);
}
BENCHMARK(BM_EngineStep)->Unit(benchmark::kMillisecond);

void BM_RangeFftPerAntenna(benchmark::State& state) {
    const auto& frames = captured_frames();
    core::PipelineConfig pipeline;
    core::SweepProcessor processor(pipeline.fmcw);
    const auto& frame = frames[0].sweeps;
    core::RangeProfile profile;
    for (auto _ : state) {
        processor.process_into(frame.antenna(0), frame.num_sweeps(), profile);
        benchmark::DoNotOptimize(profile.re.data());
    }
}
BENCHMARK(BM_RangeFftPerAntenna)->Unit(benchmark::kMicrosecond);

void BM_ClosedFormSolve(benchmark::State& state) {
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);
    const geom::EllipsoidSolver solver(array);
    const geom::Vec3 p{1.2, 5.0, 1.0};
    std::vector<double> rts;
    for (const auto& rx : array.rx)
        rts.push_back(p.distance_to(array.tx) + p.distance_to(rx));
    for (auto _ : state) benchmark::DoNotOptimize(solver.solve_closed_form(rts));
}
BENCHMARK(BM_ClosedFormSolve);

void BM_GaussNewtonSolve(benchmark::State& state) {
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);
    const geom::EllipsoidSolver solver(array);
    const geom::Vec3 p{1.2, 5.0, 1.0};
    std::vector<double> rts;
    for (const auto& rx : array.rx)
        rts.push_back(p.distance_to(array.tx) + p.distance_to(rx) + 0.01);
    const geom::Vec3 seed{0, 4, 1};
    for (auto _ : state)
        benchmark::DoNotOptimize(solver.solve_gauss_newton(rts, seed));
}
BENCHMARK(BM_GaussNewtonSolve);

}  // namespace

BENCHMARK_MAIN();
