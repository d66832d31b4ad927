// Through-wall motion tracking for gaming / virtual reality (the paper's
// first application, Section 1): a user moves freely in the next room and
// the system renders a live top-down "minimap" of her position -- the
// primitive a Kinect-style system would consume beyond line of sight.
// The renderer is a pure TrackUpdateEvent subscriber.
//
// Build & run:  ./build/example_through_wall_gaming
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dsp/stats.hpp"
#include "engine/engine.hpp"
#include "engine/sim_source.hpp"

using namespace witrack;

namespace {

/// Render a coarse top-down map: device at the bottom, room above.
void render_map(const geom::Vec3& estimate, const geom::Vec3& truth) {
    constexpr int kWidth = 33, kHeight = 10;
    std::string grid(static_cast<std::size_t>(kWidth * kHeight), '.');
    auto plot = [&](const geom::Vec3& p, char marker) {
        const int col = static_cast<int>((p.x + 4.0) / 8.0 * (kWidth - 1) + 0.5);
        const int row = static_cast<int>((p.y - 2.0) / 7.0 * (kHeight - 1) + 0.5);
        if (col < 0 || col >= kWidth || row < 0 || row >= kHeight) return;
        grid[static_cast<std::size_t>(row * kWidth + col)] = marker;
    };
    plot(truth, 'o');
    plot(estimate, 'X');  // overwrites truth when they coincide
    for (int row = kHeight - 1; row >= 0; --row)
        std::printf("    |%s|\n", grid.substr(static_cast<std::size_t>(row * kWidth),
                                              kWidth).c_str());
    std::printf("    +%s+  X = estimate, o = truth\n",
                std::string(kWidth, '=').c_str());
    std::printf("    device (behind this wall)\n");
}

}  // namespace

int main() {
    engine::EngineConfig config;
    config.with_through_wall(true).with_seed(55);
    const auto env = sim::make_through_wall_lab();
    engine::Engine eng(config, std::make_unique<engine::SimSource>(
                                   config, std::make_unique<sim::RandomWaypointWalk>(
                                               env.bounds, 12.0, Rng(55))));
    std::vector<double> errors;
    int index = 0;
    eng.bus().subscribe<engine::TrackUpdateEvent>(
        [&](const engine::TrackUpdateEvent& event) {
            if (!event.smoothed || !event.truth) return;
            const auto& est = event.smoothed->position;
            const auto& truth = event.truth->position;
            errors.push_back(est.distance_to(truth));
            if (++index % 240 == 0) {  // a map snapshot every 3 seconds
                std::printf("\n  t = %.1f s\n", event.time_s);
                render_map(est, truth);
            }
        });
    eng.run();

    std::printf("\nTracked %zu frames through the wall; "
                "median 3D error %.0f cm (paper: ~13/10/21 cm per axis)\n",
                errors.size(), dsp::median(errors) * 100.0);
    return 0;
}
