// Reproduces paper Fig. 11: CDF of the pointing-direction error.
// Paper: median 11.2 degrees, 90th percentile 37.9 degrees.
//
// Each trial: a subject stands at a random spot, points in a random
// direction (lift-hold-drop); the estimator segments the two arm bursts,
// robust-regresses the per-antenna TOFs, localizes the hand endpoints and
// averages the lift and mirrored drop directions.
//
// Usage: bench_fig11_pointing [--trials N] [--seed K] [--csv cdf.csv]
#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/pointing.hpp"
#include "core/tof.hpp"
#include "dsp/stats.hpp"
#include "harness.hpp"

using namespace witrack;

int main(int argc, char** argv) {
    bench::ShapeChecks checks;
    CliArgs args(argc, argv);
    const int trials = args.get_int("trials", args.quick() ? 10 : 40);
    const std::uint64_t seed = args.get_seed(12);

    std::vector<double> errors_deg;
    int detected = 0, both_bursts = 0;

    for (int t = 0; t < trials; ++t) {
        sim::ScenarioConfig config;
        config.through_wall = true;
        config.fast_capture = true;
        config.seed = seed + t;
        Rng rng(seed * 17 + t);
        config.human = bench::random_subject(rng);

        const geom::Vec3 stand{rng.uniform(-2.0, 2.0), rng.uniform(3.2, 6.5), 0.0};
        const double azimuth = rng.uniform(-1.2, 1.2);     // radians
        const double elevation = rng.uniform(-0.3, 0.5);
        const geom::Vec3 dir{std::sin(azimuth) * std::cos(elevation),
                             std::cos(azimuth) * std::cos(elevation),
                             std::sin(elevation)};
        auto script = std::make_unique<sim::PointingScript>(
            stand, dir, rng.fork(1), 0.57 * config.human.height_m);
        const auto* script_ptr = script.get();
        sim::Scenario scenario(config, std::move(script));

        const auto pipeline = bench::default_pipeline(config);
        core::TofEstimator tof(pipeline, 3);
        std::vector<core::TofFrame> frames;
        sim::Scenario::Frame frame;
        while (scenario.next(frame))
            frames.push_back(tof.process_frame(frame.sweeps, frame.time_s));

        core::PointingEstimator estimator(pipeline, scenario.array());
        const auto result = estimator.analyze(frames);
        if (!result) continue;
        ++detected;
        if (result->used_both_bursts) ++both_bursts;
        errors_deg.push_back(rad_to_deg(
            geom::angle_between(result->direction, script_ptr->true_direction())));
    }

    print_banner("Fig. 11 reproduction -- pointing orientation error CDF");
    if (errors_deg.empty()) {
        std::cout << "No gestures detected -- FAIL\n";
        return 1;
    }
    dsp::EmpiricalCdf cdf(errors_deg);

    Table summary({"metric", "paper", "measured"});
    summary.add_row({"median error", "11.2 deg", Table::num(cdf.median(), 1) + " deg"});
    summary.add_row({"90th percentile", "37.9 deg",
                     Table::num(cdf.percentile(90), 1) + " deg"});
    summary.add_row({"gestures detected", "-",
                     std::to_string(detected) + "/" + std::to_string(trials)});
    summary.add_row({"lift+drop mirroring used", "-",
                     std::to_string(both_bursts) + "/" + std::to_string(detected)});
    summary.print();

    Table curve({"error (deg)", "CDF"});
    for (int deg = 0; deg <= 100; deg += 10)
        curve.add_row({std::to_string(deg),
                       Table::num(cdf.fraction_below(static_cast<double>(deg)), 3)});
    curve.print();
    if (args.has("csv")) curve.write_csv(args.get("csv"));

    std::cout << "\nShape checks:\n"
              << "  median within 3x of paper (< 33.6 deg): "
              << checks.verdict(cdf.median() < 33.6) << "\n"
              << "  90th percentile < 80 deg: "
              << checks.verdict(cdf.percentile(90) < 80.0) << "\n"
              << "  >1/2 of gestures detected: "
              << checks.verdict(2 * detected > trials) << "\n";
    return checks.exit_code();
}
