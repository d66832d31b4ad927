// Ablation bench for the design choices DESIGN.md calls out:
//   1. coherent sweep averaging (1 vs 5 vs 10 sweeps per frame),
//   2. background subtraction on/off,
//   3. bottom contour vs strongest peak (dynamic-multipath robustness),
//   4. Kalman/outlier denoising on/off,
//   5. closed-form vs Gauss-Newton localization (accuracy must match).
//
// Usage: bench_ablation [--seconds S] [--seed K]
#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/contour.hpp"
#include "core/localize.hpp"
#include "core/tof.hpp"
#include "dsp/stats.hpp"
#include "geom/solver.hpp"
#include "harness.hpp"

using namespace witrack;

namespace {

struct AblationResult {
    double median_3d_cm = 0.0;
    double p90_3d_cm = 0.0;
    double located_fraction = 0.0;
};

/// Run one through-wall walk with a modified pipeline / capture setup.
AblationResult run_variant(std::uint64_t seed, double seconds,
                           core::PipelineConfig pipeline,
                           std::size_t sweeps_per_frame, bool use_strongest_peak) {
    sim::ScenarioConfig config;
    config.through_wall = true;
    config.seed = seed;
    config.fmcw.sweeps_per_frame = sweeps_per_frame;
    config.fast_capture = false;  // real multi-sweep synthesis for averaging ablation
    pipeline.fmcw = config.fmcw;

    Rng rng(seed * 7919 + 13);
    config.human = bench::random_subject(rng);
    sim::RoomSpec room;
    room.device_outside = true;
    const auto env = sim::make_lab_environment(room);
    auto script = std::make_unique<sim::RandomWaypointWalk>(
        env.bounds, seconds, rng.fork(1), 0.5, 1.3, 0.2,
        0.57 * config.human.height_m);
    sim::Scenario scenario(config, std::move(script));

    // A custom loop (instead of WiTrackTracker) so the contour policy can be
    // swapped.
    core::TofEstimator tof(pipeline, 3);
    core::ContourTracker contour(pipeline);
    core::Localizer localizer(scenario.array(), pipeline);
    core::SweepProcessor processor(pipeline.fmcw);
    // Differenced over the same tracked band the TofEstimator uses.
    const core::BackgroundSubtractor background(core::tracked_band(
        pipeline, processor.usable_bins(), processor.bin_round_trip_m()));
    std::vector<core::BackgroundSubtractor> backgrounds(3, background);

    std::vector<double> errors;
    std::size_t frames = 0, located = 0;
    sim::Scenario::Frame frame;
    core::RangeProfile profile;
    while (scenario.next(frame)) {
        ++frames;
        core::TofFrame tof_frame;
        if (!use_strongest_peak) {
            tof_frame = tof.process_frame(frame.sweeps, frame.time_s);
        } else {
            // Strongest-peak variant: same background subtraction, but track
            // the maximum-power reflector (the policy the paper rejects).
            tof_frame.time_s = frame.time_s;
            tof_frame.antennas.resize(3);
            for (std::size_t rx = 0; rx < 3; ++rx) {
                processor.process_into(frame.sweeps.antenna(rx),
                                       frame.sweeps.num_sweeps(), profile);
                const auto magnitude = backgrounds[rx].subtract(profile);
                if (!magnitude.empty()) {
                    tof_frame.antennas[rx].contour =
                        contour.extract_strongest(magnitude, profile.bin_round_trip_m);
                    if (tof_frame.antennas[rx].contour.detected)
                        tof_frame.antennas[rx].denoised_m =
                            tof_frame.antennas[rx].contour.round_trip_m;
                }
            }
        }
        const auto point = localizer.locate(tof_frame);
        if (!point || frame.time_s < 2.5) continue;
        ++located;
        errors.push_back(point->position.distance_to(frame.pose.center));
    }

    AblationResult result;
    if (!errors.empty()) {
        result.median_3d_cm = dsp::median(errors) * 100.0;
        result.p90_3d_cm = dsp::percentile(errors, 90) * 100.0;
    }
    result.located_fraction =
        frames > 0 ? static_cast<double>(located) / static_cast<double>(frames) : 0.0;
    return result;
}

}  // namespace

int main(int argc, char** argv) {
    bench::ShapeChecks checks;
    CliArgs args(argc, argv);
    const double seconds = args.get_double("seconds", args.quick() ? 8.0 : 15.0);
    const std::uint64_t seed = args.get_seed(16);

    print_banner("Ablation -- WiTrack design choices (through-wall walk, 3D error)");
    Table table({"variant", "median (cm)", "90th pct (cm)", "located"});

    const core::PipelineConfig base;

    auto add = [&](const std::string& name, const AblationResult& r) {
        table.add_row({name, Table::num(r.median_3d_cm, 1), Table::num(r.p90_3d_cm, 1),
                       Table::num(100.0 * r.located_fraction, 0) + " %"});
    };

    // 1. Sweep averaging.
    const auto avg1 = run_variant(seed, seconds, base, 1, false);
    const auto avg5 = run_variant(seed, seconds, base, 5, false);
    const auto avg10 = run_variant(seed, seconds, base, 10, false);
    add("1 sweep per frame (no averaging)", avg1);
    add("5 sweeps per frame (paper)", avg5);
    add("10 sweeps per frame", avg10);

    // 2. Denoising off (no outlier rejection / Kalman: accept raw contour).
    {
        core::PipelineConfig p = base;
        p.kalman_measurement_noise = 1e-4;  // filter degenerates to pass-through
        p.max_contour_jump_m = 1e9;         // no outlier rejection
        p.gate_window_m = 0.0;              // no gated re-detection
        add("denoising disabled", run_variant(seed, seconds, p, 5, false));
    }

    // 3. Strongest peak instead of bottom contour.
    add("strongest peak (not closest)", run_variant(seed, seconds, base, 5, true));
    table.print();

    // 4. Closed form vs Gauss-Newton (same TOFs, solver-level comparison).
    {
        const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);
        const geom::EllipsoidSolver solver(array);
        Rng rng(seed);
        double max_disagreement = 0.0;
        for (int i = 0; i < 2000; ++i) {
            const geom::Vec3 p{rng.uniform(-3, 3), rng.uniform(3, 9),
                               rng.uniform(0.2, 2.0)};
            std::vector<double> rts;
            for (const auto& rx : array.rx)
                rts.push_back(p.distance_to(array.tx) + p.distance_to(rx) +
                              rng.gaussian(0.02));
            const auto cf = solver.solve_closed_form(rts);
            if (!cf.valid) continue;
            const auto gn = solver.solve_gauss_newton(rts, cf.position);
            if (!gn.valid) continue;
            max_disagreement =
                std::max(max_disagreement, cf.position.distance_to(gn.position));
        }
        std::cout << "\nClosed form vs Gauss-Newton max disagreement over 2000 noisy "
                     "solves: "
                  << Table::num(max_disagreement * 100, 2) << " cm\n";
    }

    std::cout << "\nShape checks:\n"
              << "  averaging helps (5 sweeps <= 1 sweep median): "
              << checks.verdict(avg5.median_3d_cm <= avg1.median_3d_cm + 1.0) << "\n"
              << "  paper's 5-sweep choice within 20% of 10-sweep: "
              << checks.verdict(avg5.median_3d_cm <= 1.2 * avg10.median_3d_cm + 1.0)
              << "\n"
              << "Note: background subtraction cannot be ablated to 'off' -- without\n"
              << "it the flash effect leaves no detectable person at all (Section 4.2);\n"
              << "bench_fig3_tof quantifies its static-clutter suppression instead.\n";
    return checks.exit_code();
}
