// Reproduces the paper's real-time claim (Section 7): "Software processing
// has a total delay less than 75 ms between when the signal is received and
// a corresponding 3D location is output."
//
// google-benchmark over the per-frame pipeline (range FFT x3 antennas,
// background subtraction, contour, denoise, 3D solve, smoothing) plus the
// individual stages.
// Scheduler comparison mode: `bench_latency --scheduler-json <path>` skips
// google-benchmark and instead times the demand-driven scheduler's
// configurations (full, lazy TOF-only, lazy localize-only) over the same
// captured frames, writing the JSON consumed as
// bench/scheduler_latency.json.
// Kernel comparison mode: `bench_latency --kernel-json <path>` times the
// serial DSP hot path (per-antenna range FFT, paper-literal Bluestein FFT,
// full pipeline frame) against the pre-SoA-kernel numbers recorded in
// bench/baseline_frame_latency.json, writing bench/fft_kernel_latency.json.
// Tail profile mode: `bench_latency --tail-json <path>` runs serial full-
// pipeline frames and writes the per-step breakdown (fft, subtract,
// contour, denoise, localize, smooth) from the tracker's cycle counters
// against the pre-tail-rewrite frame latency, as
// bench/analysis_tail_latency.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline_steps.hpp"
#include "core/tracker.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd.hpp"
#include "engine/engine.hpp"
#include "engine/sim_source.hpp"
#include "geom/solver.hpp"
#include "harness.hpp"

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
    core::SweepProcessor processor(pipeline.fmcw, pipeline.window, pipeline.fft_size);
    const auto& frame = frames[0].sweeps;
    core::RangeProfile profile;
    for (auto _ : state) {
        processor.process_into(frame.antenna(0), frame.num_sweeps(), profile);
        benchmark::DoNotOptimize(profile.re.data());
    }
}
BENCHMARK(BM_RangeFftPerAntenna)->Unit(benchmark::kMicrosecond);

void BM_PaperLiteralFft2500(benchmark::State& state) {
    // Paper-literal mode: Bluestein FFT sized exactly to the sweep.
    const auto& frames = captured_frames();
    core::PipelineConfig pipeline;
    core::SweepProcessor processor(pipeline.fmcw, pipeline.window, 0);
    const auto& frame = frames[0].sweeps;
    core::RangeProfile profile;
    for (auto _ : state) {
        processor.process_into(frame.antenna(0), frame.num_sweeps(), profile);
        benchmark::DoNotOptimize(profile.re.data());
    }
}
BENCHMARK(BM_PaperLiteralFft2500)->Unit(benchmark::kMicrosecond);

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

// ------------------------------------------------ scheduler JSON comparison

struct SchedulerTiming {
    const char* name;
    double mean_ms = 0.0;
    double max_ms = 0.0;
};

/// Time one scheduler configuration over every captured frame, repeated
/// `reps` times on a fresh tracker (first repetition warms caches and is
/// discarded from the mean).
SchedulerTiming time_configuration(const char* name, core::PipelineOutputs outputs,
                                   int reps) {
    const auto& frames = captured_frames();
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);
    core::PipelineConfig pipeline;

    SchedulerTiming timing{name};
    double total_s = 0.0;
    std::size_t timed_frames = 0;
    for (int rep = 0; rep < reps; ++rep) {
        core::WiTrackTracker tracker(pipeline, array);
        double t = 0.0;
        for (const auto& frame : frames) {
            const auto t0 = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(
                tracker.process_frame(frame.sweeps, t, outputs));
            const auto t1 = std::chrono::steady_clock::now();
            t += 0.0125;
            if (rep == 0) continue;  // warm-up repetition
            const double s = std::chrono::duration<double>(t1 - t0).count();
            total_s += s;
            timing.max_ms = std::max(timing.max_ms, s * 1e3);
            ++timed_frames;
        }
    }
    timing.mean_ms = timed_frames > 0
                         ? total_s * 1e3 / static_cast<double>(timed_frames)
                         : 0.0;
    std::printf("  %-28s mean %7.3f ms   max %7.3f ms\n", timing.name,
                timing.mean_ms, timing.max_ms);
    return timing;
}

/// Full vs lazy schedules over identical frames, written as JSON next to
/// baseline_frame_latency.json; the shared report writer records the
/// machine the numbers came from.
int write_scheduler_json(const char* path) {
    constexpr int kReps = 4;
    std::printf("scheduler latency comparison (%d timed repetitions):\n",
                kReps - 1);
    const std::vector<SchedulerTiming> timings = {
        time_configuration("serial_full", core::PipelineOutputs::kAll, kReps),
        time_configuration("lazy_tof_only", core::PipelineOutputs::kTof, kReps),
        time_configuration("lazy_localize_only",
                           core::PipelineOutputs::kRawPosition, kReps),
    };

    bench::JsonReport report(path, "bench_latency --scheduler-json",
                             "LineWalkScript through-wall, 3 rx, 5 "
                             "sweeps/frame, fft_size 4096");
    if (!report.ok()) return 1;
    std::FILE* out = report.stream();
    std::fprintf(out, "  \"configurations\": {\n");
    for (std::size_t i = 0; i < timings.size(); ++i) {
        std::fprintf(out,
                     "    \"%s\": {\"mean_ms\": %.4f, \"max_ms\": %.4f}%s\n",
                     timings[i].name, timings[i].mean_ms, timings[i].max_ms,
                     i + 1 < timings.size() ? "," : "");
    }
    std::fprintf(out, "  },\n");
    const double serial = timings[0].mean_ms;
    std::fprintf(out, "  \"speedup_vs_serial\": {\n");
    for (std::size_t i = 1; i < timings.size(); ++i) {
        const double speedup =
            timings[i].mean_ms > 0.0 ? serial / timings[i].mean_ms : 0.0;
        std::fprintf(out, "    \"%s\": %.3f%s\n", timings[i].name, speedup,
                     i + 1 < timings.size() ? "," : "");
    }
    std::fprintf(out, "  }\n");
    return report.close();
}

// --------------------------------------------------- kernel JSON comparison

/// Mean/max seconds of `reps` timed calls to `fn` after one warm-up call.
template <typename Fn>
std::pair<double, double> time_calls(int reps, Fn&& fn) {
    fn();  // warm plans, scratch and caches
    double total_s = 0.0, max_s = 0.0;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        const double s = std::chrono::duration<double>(t1 - t0).count();
        total_s += s;
        max_s = std::max(max_s, s);
    }
    return {total_s / static_cast<double>(reps), max_s};
}

/// Serial DSP hot-path timings for the SoA/pruned/half-spectrum kernel
/// engine, compared against the previous engine's numbers recorded in
/// bench/baseline_frame_latency.json. These are single-threaded
/// measurements, meaningful on a single-core host too, which is exactly
/// why the kernel rewrite is the lever for per-session frame rate there.
int write_kernel_json(const char* path) {
    // Pre-kernel-rewrite numbers from bench/baseline_frame_latency.json
    // ("after" of the FrameBuffer PR, measured on this host).
    constexpr double kBeforeRangeFftUs = 145.24;
    constexpr double kBeforeFullPipelineMs = 0.60;

    const auto& frames = captured_frames();
    core::PipelineConfig pipeline;
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);

    core::SweepProcessor processor(pipeline.fmcw, pipeline.window,
                                   pipeline.fft_size);
    core::RangeProfile profile;
    const auto& frame = frames[0].sweeps;
    const auto [fft_mean_s, fft_max_s] = time_calls(2000, [&] {
        processor.process_into(frame.antenna(0), frame.num_sweeps(), profile);
        benchmark::DoNotOptimize(profile.re.data());
    });

    core::SweepProcessor literal(pipeline.fmcw, pipeline.window, 0);
    const auto [bluestein_mean_s, bluestein_max_s] = time_calls(500, [&] {
        literal.process_into(frame.antenna(0), frame.num_sweeps(), profile);
        benchmark::DoNotOptimize(profile.re.data());
    });

    core::WiTrackTracker tracker(pipeline, array);
    std::size_t i = 0;
    double t = 0.0;
    const auto [pipe_mean_s, pipe_max_s] = time_calls(1000, [&] {
        benchmark::DoNotOptimize(
            tracker.process_frame(frames[i % frames.size()].sweeps, t));
        ++i;
        t += 0.0125;
    });

    const double fft_us = fft_mean_s * 1e6;
    const double bluestein_us = bluestein_mean_s * 1e6;
    const double pipe_ms = pipe_mean_s * 1e3;
    std::printf("kernel latency (serial, single core):\n");
    std::printf("  range FFT / antenna   %8.2f us (was %.2f)\n", fft_us,
                kBeforeRangeFftUs);
    std::printf("  paper-literal 2500    %8.2f us\n", bluestein_us);
    std::printf("  full pipeline frame   %8.3f ms (was %.2f)\n", pipe_ms,
                kBeforeFullPipelineMs);

    bench::JsonReport report(path, "bench_latency --kernel-json",
                             "LineWalkScript through-wall, 3 rx, 5 "
                             "sweeps/frame, fft_size 4096 (2500 live samples)");
    if (!report.ok()) return 1;
    report.note(
        "serial single-thread timings: the kernel rewrite is a per-core win, "
        "so these are meaningful on a single-core host; multi-core fleets "
        "bank the same per-session saving on every core");
    std::FILE* out = report.stream();
    std::fprintf(out, "  \"simd_level\": \"%s\",\n",
                 dsp::simd::to_string(dsp::simd::active()));
    std::fprintf(out, "  \"before\": {\n");
    std::fprintf(out,
                 "    \"description\": \"interleaved-complex scalar radix-2 "
                 "(direction branch + conj in the butterfly loop), full-"
                 "spectrum RealFft, separate zero-fill/accumulate/window "
                 "passes (bench/baseline_frame_latency.json)\",\n");
    std::fprintf(out, "    \"BM_RangeFftPerAntenna_mean_us\": %.2f,\n",
                 kBeforeRangeFftUs);
    std::fprintf(out, "    \"BM_FullPipelineFrame_mean_ms\": %.2f\n",
                 kBeforeFullPipelineMs);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"after\": {\n");
    std::fprintf(out,
                 "    \"description\": \"SoA Stockham radix-4 kernels "
                 "(separate forward/inverse, per-stage sequential twiddles), "
                 "input pruning 2500->4096, r2c half-spectrum profiles, "
                 "fused average+window pack\",\n");
    std::fprintf(out, "    \"BM_RangeFftPerAntenna_mean_us\": %.2f,\n", fft_us);
    std::fprintf(out, "    \"BM_PaperLiteralFft2500_mean_us\": %.2f,\n",
                 bluestein_us);
    std::fprintf(out, "    \"BM_FullPipelineFrame_mean_ms\": %.3f\n", pipe_ms);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"speedup\": {\n");
    std::fprintf(out, "    \"range_fft_per_antenna\": %.2f,\n",
                 fft_us > 0.0 ? kBeforeRangeFftUs / fft_us : 0.0);
    std::fprintf(out, "    \"full_pipeline_frame\": %.2f,\n",
                 pipe_ms > 0.0 ? kBeforeFullPipelineMs / pipe_ms : 0.0);
    std::fprintf(out, "    \"target_range_fft\": 1.8,\n");
    std::fprintf(out, "    \"target_full_pipeline\": 1.3\n");
    std::fprintf(out, "  }\n");
    return report.close();
}

// ----------------------------------------------- tail JSON per-step profile

/// Per-pipeline-step frame profile for the vectorized analysis tail:
/// serial full-pipeline frames over the captured scenario, with the
/// tracker's cycle-counter step stats (fft / subtract / contour / denoise /
/// localize / smooth) harvested for the breakdown and compared against the
/// pre-tail-rewrite full-frame number recorded by --kernel-json.
int write_tail_json(const char* path) {
    // Pre-tail-rewrite numbers from bench/fft_kernel_latency.json ("after"
    // of the SIMD FFT engine PR, measured on this host): the analysis tail
    // (std::abs magnitudes, band-copy sorts, per-frame allocations) was
    // untouched there, so its full-frame mean is this PR's "before".
    constexpr double kBeforeFullPipelineMs = 0.21;
    constexpr double kBeforeRangeFftUs = 16.9;

    const auto& frames = captured_frames();
    core::PipelineConfig pipeline;
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);
    core::WiTrackTracker tracker(pipeline, array);

    std::size_t i = 0;
    double t = 0.0;
    const auto step = [&] {
        benchmark::DoNotOptimize(
            tracker.process_frame(frames[i % frames.size()].sweeps, t));
        ++i;
        t += 0.0125;
    };
    // Warm every plan, scratch plane and persistent frame, then discard the
    // warm-up's samples so the breakdown covers only steady-state frames.
    for (std::size_t k = 0; k < frames.size(); ++k) step();
    tracker.take_step_stats();

    constexpr int kReps = 2000;
    const auto [pipe_mean_s, pipe_max_s] = time_calls(kReps, step);
    const auto steps = tracker.take_step_stats();

    const double pipe_ms = pipe_mean_s * 1e3;
    struct StageRow {
        const char* name;
        const core::StepCounter* counter;
    };
    const StageRow rows[] = {
        {"fft", &steps.tof.fft},           {"subtract", &steps.tof.subtract},
        {"contour", &steps.tof.contour},   {"denoise", &steps.tof.denoise},
        {"localize", &steps.localize},     {"smooth", &steps.smooth},
    };
    std::printf("analysis tail latency (serial, single core):\n");
    std::printf("  full pipeline frame   %8.3f ms (was %.2f)\n", pipe_ms,
                kBeforeFullPipelineMs);
    for (const auto& row : rows) {
        const double mean_us =
            row.counter->frames > 0
                ? row.counter->total_seconds() * 1e6 /
                      static_cast<double>(row.counter->frames)
                : 0.0;
        std::printf("  %-10s %8.2f us/sample  (%llu samples)\n", row.name,
                    mean_us,
                    static_cast<unsigned long long>(row.counter->frames));
    }

    bench::JsonReport report(path, "bench_latency --tail-json",
                             "LineWalkScript through-wall, 3 rx, 5 "
                             "sweeps/frame, fft_size 4096 (2500 live samples)");
    if (!report.ok()) return 1;
    report.note(
        "serial single-thread timings; per-RX stages (fft/subtract/contour/"
        "denoise) count (frame, antenna) samples, so divide by 3 antennas "
        "for per-frame cost; stage means come from rdtsc step counters, the "
        "frame mean from steady_clock around the whole call",
        "methodology");
    report.single_core_caveat(
        "absolute numbers are pessimistic under shared-host load; the "
        "before/after ratio is a single-thread property and holds here");
    std::FILE* out = report.stream();
    std::fprintf(out, "  \"simd_level\": \"%s\",\n",
                 dsp::simd::to_string(dsp::simd::active()));
    std::fprintf(out, "  \"before\": {\n");
    std::fprintf(out,
                 "    \"description\": \"SIMD FFT engine with scalar analysis "
                 "tail: std::abs(cplx) magnitudes, band-copy sort noise "
                 "floors, per-frame TofFrame/profile allocations "
                 "(bench/fft_kernel_latency.json)\",\n");
    std::fprintf(out, "    \"BM_FullPipelineFrame_mean_ms\": %.2f,\n",
                 kBeforeFullPipelineMs);
    std::fprintf(out, "    \"BM_RangeFftPerAntenna_mean_us\": %.2f\n",
                 kBeforeRangeFftUs);
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"after\": {\n");
    std::fprintf(out,
                 "    \"description\": \"fused SIMD subtract+magnitude "
                 "(sqrt(re^2+im^2)) over SoA spectrum planes, scratch-threaded "
                 "contour with one cached nth_element noise floor per antenna "
                 "per frame, persistent TofFrame -- zero steady-state "
                 "allocations\",\n");
    std::fprintf(out, "    \"BM_FullPipelineFrame_mean_ms\": %.3f,\n", pipe_ms);
    std::fprintf(out, "    \"BM_FullPipelineFrame_max_ms\": %.3f,\n",
                 pipe_max_s * 1e3);
    std::fprintf(out, "    \"stages\": {\n");
    const std::size_t n_rows = sizeof(rows) / sizeof(rows[0]);
    for (std::size_t r = 0; r < n_rows; ++r) {
        const core::StepCounter& c = *rows[r].counter;
        const double mean_us =
            c.frames > 0
                ? c.total_seconds() * 1e6 / static_cast<double>(c.frames)
                : 0.0;
        std::fprintf(out,
                     "      \"%s\": {\"mean_us_per_sample\": %.3f, "
                     "\"max_us\": %.3f, \"samples\": %llu}%s\n",
                     rows[r].name, mean_us, c.max_seconds() * 1e6,
                     static_cast<unsigned long long>(c.frames),
                     r + 1 < n_rows ? "," : "");
    }
    std::fprintf(out, "    }\n");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"speedup\": {\n");
    std::fprintf(out, "    \"full_pipeline_frame\": %.2f,\n",
                 pipe_ms > 0.0 ? kBeforeFullPipelineMs / pipe_ms : 0.0);
    std::fprintf(out, "    \"target_full_pipeline\": 1.3\n");
    std::fprintf(out, "  }\n");
    return report.close();
}

}  // namespace

int main(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--scheduler-json") == 0)
            return write_scheduler_json(argv[i + 1]);
        if (std::strcmp(argv[i], "--kernel-json") == 0)
            return write_kernel_json(argv[i + 1]);
        if (std::strcmp(argv[i], "--tail-json") == 0)
            return write_tail_json(argv[i + 1]);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
