// Quickstart: track a person walking behind a wall and print the 3D track.
//
// This is the minimal end-to-end use of the library's streaming Engine:
//   1. describe the deployment once with EngineConfig,
//   2. pick a FrameSource (here the simulator; swap in ReplaySource or
//      NetSource without touching anything below),
//   3. subscribe to TrackUpdateEvents and run.
//
// Build & run:  ./build/example_quickstart
#include <cstdio>
#include <memory>

#include "engine/engine.hpp"
#include "engine/sim_source.hpp"

using namespace witrack;

int main() {
    // --- 1. Deployment: device behind the wall, person walking inside. ---
    engine::EngineConfig config;
    config.with_through_wall(true).with_seed(2024);

    // --- 2. Source: simulate a 10 s random walk through the lab. ---
    const auto env = sim::make_through_wall_lab();
    auto source = std::make_unique<engine::SimSource>(
        config, std::make_unique<sim::RandomWaypointWalk>(env.bounds, 10.0,
                                                          Rng(2024)));

    // --- 3. Engine: subscribe to track updates and stream. ---
    // The Engine owns its source (the preferred constructor -- no lifetime
    // fine print), and the scheduler is demand-driven: subscribing to
    // TrackUpdateEvent is what makes it run the full TOF -> localize ->
    // smooth chain (stages and subscribers that only need TOF would skip
    // the rest).
    engine::Engine eng(config, std::move(source));

    std::printf("time     estimate (x, y, z)         truth (x, y, z)        err\n");
    std::printf("----------------------------------------------------------------\n");
    int frame_index = 0;
    eng.bus().subscribe<engine::TrackUpdateEvent>(
        [&](const engine::TrackUpdateEvent& event) {
            // truth is absent on network sources; guard so the
            // subscriber survives a source swap unchanged.
            if (!event.smoothed || !event.truth || ++frame_index % 40 != 0) return;
            const auto& p = event.smoothed->position;
            const auto& t = event.truth->position;
            std::printf("%5.1f s  (%5.2f, %5.2f, %5.2f) m   (%5.2f, %5.2f, %5.2f) m  %4.0f cm\n",
                        event.time_s, p.x, p.y, p.z, t.x, t.y, t.z,
                        p.distance_to(t) * 100.0);
        });
    eng.run();

    const auto& latency = eng.tracker().frame_latency();
    std::printf("\nProcessed %zu frames (pipeline steps: %s); pipeline latency "
                "p50 %.2f ms, p99 %.2f ms, max %.2f ms (paper budget: < 75 ms)\n",
                eng.frames_processed(), core::to_string(eng.demanded_outputs()).c_str(),
                latency.quantile_s(0.5) * 1e3, latency.quantile_s(0.99) * 1e3,
                latency.max_s * 1e3);
    return 0;
}
