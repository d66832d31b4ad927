// Fleet throughput bench: frames/second an EngineHost sustains as the
// session count grows, at 1/2/4 shared workers -- the scaling curve of the
// multi-tenant runtime. Writes bench/fleet_throughput.json (same shape
// discipline as scheduler_latency.json: host_cpus records the machine, a
// single-core host carries an explicit caveat since extra workers can only
// add dispatch overhead there).
//
// Run:  ./build/bench_fleet [output.json]
//       ./build/bench_fleet --snapshot-json [output.json]
//       ./build/bench_fleet --fault-json [output.json]
//
// The --snapshot-json mode measures the session snapshot/restore path
// instead: checkpoint latency, snapshot byte size and restore latency per
// canonical session shape, into bench/snapshot_latency.json.
//
// The --fault-json mode measures hardware-fault degradation: tracking
// error versus injected antenna-dropout rate, plus the recovery latency
// after a scheduled mid-run dropout window, into
// bench/fault_degradation.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/host.hpp"
#include "engine/replay.hpp"
#include "engine/sim_source.hpp"
#include "harness.hpp"
#include "hw/fault_injector.hpp"

using namespace witrack;

namespace {

engine::EngineConfig session_config(std::uint64_t seed) {
    engine::EngineConfig config;
    config.with_fast_capture(true).with_seed(seed);
    return config;
}

std::unique_ptr<engine::SimSource> make_source(std::uint64_t seed) {
    return std::make_unique<engine::SimSource>(
        session_config(seed),
        std::make_unique<sim::LineWalkScript>(geom::Vec3{-1, 5, 0},
                                              geom::Vec3{1, 5, 0}, 2.0, 1.0));
}

struct Point {
    std::size_t workers = 0;
    std::size_t sessions = 0;
    std::size_t frames = 0;
    double seconds = 0.0;
    double fps() const { return seconds > 0.0 ? frames / seconds : 0.0; }
};

/// One fleet run to completion: `sessions` identical full-pipeline sim
/// tenants on a host with `workers` shared workers.
Point run_fleet(std::size_t workers, std::size_t sessions) {
    engine::EngineHost host(engine::HostConfig{}
                                .with_workers(workers)
                                .with_max_sessions(sessions));
    for (std::size_t s = 0; s < sessions; ++s)
        host.admit("bench-" + std::to_string(s), session_config(900 + s),
                   make_source(900 + s));

    Point point;
    point.workers = workers;
    point.sessions = sessions;
    const auto t0 = std::chrono::steady_clock::now();
    point.frames = host.run();
    const auto t1 = std::chrono::steady_clock::now();
    point.seconds = std::chrono::duration<double>(t1 - t0).count();
    std::printf("  workers %zu  sessions %zu  %5zu frames  %6.2f s  %7.1f "
                "frames/s\n",
                point.workers, point.sessions, point.frames, point.seconds,
                point.fps());
    return point;
}

// ------------------------------------------------ snapshot latency mode

struct SnapshotPoint {
    std::string shape;
    std::size_t frames_at_snapshot = 0;
    std::size_t bytes = 0;
    double snapshot_us = 0.0;  ///< mean checkpoint wall clock
    double restore_us = 0.0;   ///< mean restore-into-fresh-engine wall clock
};

/// Run a session shape halfway, then measure Engine::snapshot and
/// Engine::restore on it. The restored engine is run to completion once as
/// a sanity check that the measured snapshot actually resumes.
SnapshotPoint measure_snapshot(
    const std::string& shape,
    const std::function<std::unique_ptr<engine::Engine>()>& make_session) {
    constexpr std::size_t kSnapshotReps = 100;
    constexpr std::size_t kRestoreReps = 10;

    auto session = make_session();
    std::size_t episode_frames = 0;
    {
        auto probe = make_session();
        probe->run();
        episode_frames = probe->frames_processed();
    }
    for (std::size_t i = 0; i < episode_frames / 2; ++i) session->step();

    SnapshotPoint point;
    point.shape = shape;
    point.frames_at_snapshot = session->frames_processed();

    std::string bytes;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < kSnapshotReps; ++rep) {
        std::ostringstream out;
        session->snapshot(out);
        bytes = out.str();
    }
    const auto t1 = std::chrono::steady_clock::now();
    point.bytes = bytes.size();
    point.snapshot_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kSnapshotReps;

    std::unique_ptr<engine::Engine> restored;
    const auto t2 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < kRestoreReps; ++rep) {
        restored = make_session();
        std::istringstream in(bytes);
        restored->restore(in);
    }
    const auto t3 = std::chrono::steady_clock::now();
    point.restore_us =
        std::chrono::duration<double, std::micro>(t3 - t2).count() / kRestoreReps;

    restored->run();
    if (restored->frames_processed() != episode_frames) {
        std::fprintf(stderr, "%s: restored session finished at %zu frames, "
                             "expected %zu\n",
                     shape.c_str(), restored->frames_processed(), episode_frames);
        std::exit(1);
    }

    std::printf("  %-20s  %5zu frames  %7zu bytes  snapshot %8.1f us  "
                "restore %8.1f us\n",
                point.shape.c_str(), point.frames_at_snapshot, point.bytes,
                point.snapshot_us, point.restore_us);
    return point;
}

int run_snapshot_bench(const std::string& path) {
    const std::string recording = "bench_snapshot_episode.wtrk";
    {
        auto config = session_config(907);
        engine::SimSource live(config,
                               std::make_unique<sim::LineWalkScript>(
                                   geom::Vec3{-1, 5, 0}, geom::Vec3{1, 5, 0},
                                   2.0, 1.0));
        engine::Recorder recorder(recording, live.fmcw(), live.array());
        engine::Frame frame;
        while (live.next(frame)) recorder.write(frame);
    }

    std::printf("session snapshot/restore latency:\n");
    std::vector<SnapshotPoint> points;
    points.push_back(measure_snapshot("sim-full", [] {
        auto config = session_config(901);
        return std::make_unique<engine::Engine>(
            config, make_source(901));
    }));
    points.push_back(measure_snapshot("sim-tof-only", [] {
        auto config = session_config(902);
        config.with_outputs(core::PipelineOutputs::kTof);
        return std::make_unique<engine::Engine>(config, make_source(902));
    }));
    points.push_back(measure_snapshot("replay-localize-only", [&] {
        auto config = session_config(907);
        config.with_outputs(core::PipelineOutputs::kRawPosition);
        return std::make_unique<engine::Engine>(
            config, std::make_unique<engine::ReplaySource>(recording));
    }));
    std::remove(recording.c_str());

    bench::JsonReport report(path, "bench_fleet --snapshot-json",
                             "Engine::snapshot / Engine::restore at "
                             "mid-episode for the three canonical session "
                             "shapes (LineWalkScript, fast capture, ~160 "
                             "frames); restore includes fast-forwarding the "
                             "replay cursor for the replay shape");
    if (!report.ok()) return 1;
    report.single_core_caveat("absolute latencies are pessimistic; the byte "
                              "sizes are machine-independent");
    std::FILE* out = report.stream();
    std::fprintf(out, "  \"sessions\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto& p = points[i];
        std::fprintf(out,
                     "    {\"shape\": \"%s\", \"frames_at_snapshot\": %zu, "
                     "\"snapshot_bytes\": %zu, \"snapshot_us\": %.1f, "
                     "\"restore_us\": %.1f}%s\n",
                     p.shape.c_str(), p.frames_at_snapshot, p.bytes,
                     p.snapshot_us, p.restore_us,
                     i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n");
    return report.close();
}

// ------------------------------------------- hw fault degradation mode

struct FaultPoint {
    std::string label;
    double dropout_rate = 0.0;
    std::size_t frames = 0;
    std::size_t degraded_frames = 0;
    double mean_health = 1.0;
    double mean_error_m = 0.0;
    double p90_error_m = 0.0;
    double recovery_s = -1.0;  ///< scheduled window only; -1 = n/a
};

/// One full episode under the given hardware faults, tracking error
/// measured against the simulator's ground truth frame by frame.
FaultPoint run_fault_episode(const std::string& label,
                             const hw::FaultConfig& faults, bool has_faults,
                             double window_end_s = -1.0) {
    auto source = make_source(906);
    if (has_faults)
        source->set_fault_injector(std::make_unique<hw::FaultInjector>(faults));
    engine::Engine session(session_config(906), std::move(source));

    std::vector<double> errors;
    double recovered_at = -1.0;
    session.bus().subscribe<engine::TrackUpdateEvent>(
        [&](const engine::TrackUpdateEvent& event) {
            if (!event.smoothed || !event.truth) return;
            const geom::Vec3 p = event.smoothed->position;
            const geom::Vec3 t = event.truth->position;
            errors.push_back(std::sqrt((p.x - t.x) * (p.x - t.x) +
                                       (p.y - t.y) * (p.y - t.y) +
                                       (p.z - t.z) * (p.z - t.z)));
            if (window_end_s >= 0.0 && recovered_at < 0.0 &&
                event.time_s >= window_end_s && event.confidence >= 1.0)
                recovered_at = event.time_s;
        });
    session.run();

    FaultPoint point;
    point.label = label;
    point.dropout_rate = faults.dropout_rate;
    point.frames = session.quality_stats().frames;
    point.degraded_frames = session.quality_stats().degraded_frames;
    point.mean_health = session.quality_stats().mean_health();
    if (!errors.empty()) {
        double sum = 0.0;
        for (const double e : errors) sum += e;
        point.mean_error_m = sum / static_cast<double>(errors.size());
        std::sort(errors.begin(), errors.end());
        point.p90_error_m = errors[errors.size() * 9 / 10];
    }
    if (window_end_s >= 0.0 && recovered_at >= 0.0)
        point.recovery_s = recovered_at - window_end_s;

    std::printf("  %-18s  %4zu frames  %4zu degraded  health %5.3f  "
                "err %5.3f m  p90 %5.3f m%s\n",
                point.label.c_str(), point.frames, point.degraded_frames,
                point.mean_health, point.mean_error_m, point.p90_error_m,
                point.recovery_s >= 0.0
                    ? ("  recovery " + std::to_string(point.recovery_s) + " s")
                          .c_str()
                    : "");
    return point;
}

int run_fault_bench(const std::string& path) {
    std::printf("hardware fault degradation sweep:\n");
    std::vector<FaultPoint> points;
    points.push_back(run_fault_episode("clean", hw::FaultConfig{}, false));
    for (const double rate : {0.02, 0.05, 0.10}) {
        hw::FaultConfig faults;
        faults.dropout_rate = rate;
        faults.seed = 77;
        points.push_back(run_fault_episode(
            "dropout-" + std::to_string(static_cast<int>(rate * 100)) + "pct",
            faults, true));
    }
    // The acceptance shape: one antenna dead for a 0.4 s window mid-walk;
    // recovery_s is the lag from the window's end until the published
    // confidence returns to 1.0.
    hw::FaultConfig scheduled;
    scheduled.schedule.push_back(
        {hw::FaultWindow::Kind::kDropout, 0.8, 1.2, 0, 1.0});
    points.push_back(
        run_fault_episode("scheduled-dropout", scheduled, true, 1.2));

    bench::JsonReport report(
        path, "bench_fleet --fault-json",
        "one canonical episode (LineWalkScript, fast capture) per point, a "
        "seeded hw::FaultInjector damaging frames at the source; error is "
        "3D distance between the smoothed track and simulator ground truth "
        "per frame; the scheduled-dropout point kills antenna 0 over "
        "[0.8 s, 1.2 s) and reports the confidence recovery lag");
    if (!report.ok()) return 1;
    report.single_core_caveat("error/health/recovery figures are "
                              "machine-independent (deterministic replay); "
                              "only wall clock would differ");
    std::FILE* out = report.stream();
    std::fprintf(out, "  \"sweep\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto& p = points[i];
        std::fprintf(out,
                     "    {\"label\": \"%s\", \"dropout_rate\": %.2f, "
                     "\"frames\": %zu, \"degraded_frames\": %zu, "
                     "\"mean_health\": %.4f, \"mean_error_m\": %.4f, "
                     "\"p90_error_m\": %.4f, \"recovery_s\": %.4f}%s\n",
                     p.label.c_str(), p.dropout_rate, p.frames,
                     p.degraded_frames, p.mean_health, p.mean_error_m,
                     p.p90_error_m, p.recovery_s,
                     i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n");
    return report.close();
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 1 && std::string(argv[1]) == "--fault-json") {
        return run_fault_bench(argc > 2 ? argv[2]
                                        : "bench/fault_degradation.json");
    }
    if (argc > 1 && std::string(argv[1]) == "--snapshot-json") {
        return run_snapshot_bench(argc > 2 ? argv[2]
                                           : "bench/snapshot_latency.json");
    }
    const std::string path =
        argc > 1 ? argv[1] : std::string("bench/fleet_throughput.json");

    // Warm the shared FFT plan cache once so every configuration pays the
    // same (zero) plan-construction cost, as a long-running server would.
    run_fleet(1, 1);

    std::printf("fleet throughput sweep:\n");
    std::vector<Point> points;
    for (const std::size_t workers : {1u, 2u, 4u})
        for (const std::size_t sessions : {1u, 2u, 4u, 8u})
            points.push_back(run_fleet(workers, sessions));

    bench::JsonReport report(path, "bench_fleet",
                             "N identical full-pipeline sim sessions "
                             "(LineWalkScript, fast capture, ~160 frames "
                             "each) on one EngineHost, run to completion");
    if (!report.ok()) return 1;
    report.single_core_caveat(
        "the multi-worker configurations can only add dispatch overhead here "
        "(no parallel hardware); rerun on a multi-core machine for the "
        "scaling curve -- tests/test_fleet.cpp proves all schedules "
        "bit-identical regardless");
    std::FILE* out = report.stream();
    std::fprintf(out, "  \"configurations\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto& p = points[i];
        std::fprintf(out,
                     "    {\"workers\": %zu, \"sessions\": %zu, "
                     "\"frames\": %zu, \"seconds\": %.4f, "
                     "\"frames_per_second\": %.1f}%s\n",
                     p.workers, p.sessions, p.frames, p.seconds, p.fps(),
                     i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n");
    return report.close();
}
