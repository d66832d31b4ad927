// Reproduces paper Fig. 5: the spectrogram signature of an arm gesture vs a
// whole-body motion. The arm's reflection surface is much smaller, so the
// power-weighted spread ("extent") of the background-subtracted profile is
// significantly smaller -- WiTrack's discriminator for gesture detection
// (Section 6.1).
//
// Usage: bench_fig5_gesture [--trials N] [--seed K]
#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/pointing.hpp"
#include "core/tof.hpp"
#include "dsp/stats.hpp"
#include "harness.hpp"

using namespace witrack;

namespace {

/// Mean reflection extent across detecting frames for one scenario.
double mean_extent(sim::Scenario& scenario, const core::PipelineConfig& pipeline,
                   std::vector<core::TofFrame>* frames_out = nullptr) {
    core::TofEstimator tof(pipeline, 3);
    dsp::RunningStats extent;
    sim::Scenario::Frame frame;
    while (scenario.next(frame)) {
        const auto tof_frame = tof.process_frame(frame.sweeps, frame.time_s);
        if (tof_frame.motion_detected(2)) extent.add(tof_frame.mean_extent_m());
        if (frames_out) frames_out->push_back(tof_frame);
    }
    return extent.count() > 0 ? extent.mean() : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    bench::ShapeChecks checks;
    CliArgs args(argc, argv);
    const int trials = args.get_int("trials", args.quick() ? 3 : 8);
    const std::uint64_t seed = args.get_seed(11);

    const auto env = sim::make_through_wall_lab();
    std::vector<double> body_extents, arm_extents;
    int arm_classified = 0, body_classified = 0;

    for (int t = 0; t < trials; ++t) {
        sim::ScenarioConfig config;
        config.through_wall = true;
        config.fast_capture = true;
        config.seed = seed + t;
        const auto pipeline = bench::default_pipeline(config);
        Rng rng(seed * 31 + t);

        // Whole-body walk.
        {
            sim::Scenario scenario(config, std::make_unique<sim::RandomWaypointWalk>(
                                               env.bounds, 10.0, rng.fork(1)));
            std::vector<core::TofFrame> frames;
            body_extents.push_back(mean_extent(scenario, pipeline, &frames));
            core::PointingEstimator estimator(pipeline, scenario.array());
            if (!estimator.looks_like_body_part(frames)) ++body_classified;
        }
        // Arm pointing gesture (body static).
        {
            const geom::Vec3 stand{rng.uniform(-1.5, 1.5), rng.uniform(3.5, 6.0), 0.0};
            const geom::Vec3 dir{rng.uniform(-0.7, 0.7), rng.uniform(0.4, 1.0),
                                 rng.uniform(-0.2, 0.4)};
            sim::Scenario scenario(config, std::make_unique<sim::PointingScript>(
                                               stand, dir, rng.fork(2)));
            std::vector<core::TofFrame> frames;
            arm_extents.push_back(mean_extent(scenario, pipeline, &frames));
            core::PointingEstimator estimator(pipeline, scenario.array());
            if (estimator.looks_like_body_part(frames)) ++arm_classified;
        }
    }

    print_banner("Fig. 5 reproduction -- arm gesture vs whole-body reflection extent");
    Table table({"motion", "mean extent (m)", "classified correctly"});
    table.add_row({"whole body (walk)", Table::num(dsp::mean(body_extents), 3),
                   std::to_string(body_classified) + "/" + std::to_string(trials)});
    table.add_row({"arm (pointing gesture)", Table::num(dsp::mean(arm_extents), 3),
                   std::to_string(arm_classified) + "/" + std::to_string(trials)});
    table.print();

    const double ratio = dsp::mean(body_extents) / std::max(1e-9, dsp::mean(arm_extents));
    std::cout << "\nBody/arm extent ratio: " << Table::num(ratio, 2)
              << "x (paper: body variance 'significantly larger')\n"
              << "Shape check (ratio > 1.5 and both classifiers >= 2/3 correct): "
              << checks.verdict(ratio > 1.5 && 3 * arm_classified >= 2 * trials &&
                                3 * body_classified >= 2 * trials)
              << "\n";
    return checks.exit_code();
}
