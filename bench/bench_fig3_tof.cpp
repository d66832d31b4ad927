// Reproduces paper Fig. 3: the TOF-estimation stages. (a) the raw
// spectrogram is dominated by horizontal stripes from static reflectors
// (the flash effect); (b) background subtraction removes them and reveals
// the moving person; (c) bottom-contour tracking plus denoising yields a
// clean TOF trace.
//
// The harness quantifies each stage: static-stripe power before/after
// subtraction, raw-contour outlier fraction, and the round-trip-distance
// RMSE of the raw vs denoised contour against ground truth.
//
// Usage: bench_fig3_tof [--seconds S] [--seed K] [--csv spectrogram.csv]
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/tof.hpp"
#include "dsp/stats.hpp"
#include "harness.hpp"

using namespace witrack;

int main(int argc, char** argv) {
    bench::ShapeChecks checks;
    CliArgs args(argc, argv);
    const double seconds = args.get_double("seconds", args.quick() ? 8.0 : 20.0);
    const std::uint64_t seed = args.get_seed(7);

    sim::ScenarioConfig config;
    config.through_wall = true;
    config.fast_capture = true;
    config.seed = seed;
    Rng rng(seed + 5);
    const auto env = sim::make_through_wall_lab();
    sim::Scenario scenario(config, std::make_unique<sim::RandomWaypointWalk>(
                                       env.bounds, seconds, rng.fork(1)));

    auto pipeline = bench::default_pipeline(config);
    pipeline.record_profiles = true;

    core::SweepProcessor processor(pipeline.fmcw);
    core::TofEstimator tof(pipeline, 3);

    // Stage statistics for receive antenna 0.
    dsp::RunningStats raw_static_power;     // spectrogram power in static bins
    dsp::RunningStats subtracted_static_power;
    std::vector<double> raw_contour_err, denoised_err;
    std::size_t raw_outliers = 0, raw_points = 0;
    double prev_raw_contour = -1.0;

    sim::Scenario::Frame frame;
    core::RangeProfile profile;
    while (scenario.next(frame)) {
        // Ground-truth round trip to rx0 (via the torso surface).
        const geom::Vec3 surface =
            frame.pose.center +
            (scenario.array().tx - frame.pose.center).normalized() * 0.11;
        const double truth_rt = surface.distance_to(scenario.array().tx) +
                                surface.distance_to(scenario.array().rx[0]);

        // Static-stripe level: the strongest raw-spectrogram magnitude in
        // the 3-25 m band, at least 2 m of round trip away from the person
        // (so the stripe measured is genuinely a static reflector).
        processor.process_into(frame.sweeps.antenna(0), frame.sweeps.num_sweeps(),
                               profile);
        const auto lo = static_cast<std::size_t>(profile.bin_of_round_trip(3.0));
        const auto hi = static_cast<std::size_t>(profile.bin_of_round_trip(25.0));
        auto away_from_person = [&](std::size_t k) {
            return std::abs(profile.round_trip_of_bin(static_cast<double>(k)) -
                            truth_rt) > 2.0;
        };
        double stripe = 0.0;
        for (std::size_t k = lo; k <= hi; ++k)
            if (away_from_person(k)) stripe = std::max(stripe, std::abs(profile.bin(k)));
        raw_static_power.add(stripe);

        const auto tof_frame = tof.process_frame(frame.sweeps, frame.time_s);
        const auto& antenna = tof_frame.antennas[0];
        if (!antenna.profile.empty()) {
            double residue = 0.0;
            for (std::size_t k = lo; k <= hi && k < antenna.profile.size(); ++k)
                if (away_from_person(k)) residue = std::max(residue, antenna.profile[k]);
            subtracted_static_power.add(residue);
        }

        if (antenna.contour.detected && frame.time_s > 2.0) {
            ++raw_points;
            const double err = std::abs(antenna.contour.round_trip_m - truth_rt);
            raw_contour_err.push_back(err);
            if (prev_raw_contour >= 0.0 &&
                std::abs(antenna.contour.round_trip_m - prev_raw_contour) > 1.2)
                ++raw_outliers;
            prev_raw_contour = antenna.contour.round_trip_m;
        }
        if (antenna.denoised_m && frame.time_s > 2.0)
            denoised_err.push_back(std::abs(*antenna.denoised_m - truth_rt));
    }

    print_banner("Fig. 3 reproduction -- TOF estimation stages (Rx0, through-wall)");
    Table stages({"stage", "metric", "value"});
    stages.add_row({"(a) raw spectrogram", "static stripe magnitude (mean)",
                    Table::num(raw_static_power.mean(), 6)});
    stages.add_row({"(b) background subtraction", "same bins after subtraction",
                    Table::num(subtracted_static_power.mean(), 6)});
    const double suppression =
        raw_static_power.mean() / std::max(1e-12, subtracted_static_power.mean());
    stages.add_row({"", "static suppression factor", Table::num(suppression, 1) + "x"});
    stages.add_row({"(c) raw bottom contour", "round-trip RMSE vs truth",
                    Table::num(dsp::median(raw_contour_err) * 100, 1) + " cm (median)"});
    stages.add_row({"", "frame-to-frame jumps > 1.2 m",
                    Table::num(100.0 * static_cast<double>(raw_outliers) /
                                   std::max<std::size_t>(1, raw_points),
                               1) + " %"});
    stages.add_row({"(c) denoised contour", "round-trip error vs truth",
                    Table::num(dsp::median(denoised_err) * 100, 1) + " cm (median)"});
    stages.print();

    const bool pass = suppression > 10.0 &&
                      dsp::median(denoised_err) <= dsp::median(raw_contour_err) + 0.01;
    std::cout << "\nShape checks:\n"
              << "  background subtraction removes static stripes (>10x): "
              << checks.verdict(suppression > 10.0) << "\n"
              << "  denoising does not degrade the contour: "
              << checks.verdict(dsp::median(denoised_err) <=
                                dsp::median(raw_contour_err) + 0.01)
              << "\n"
              << (pass ? "Fig. 3 shape reproduced.\n" : "Fig. 3 shape NOT reproduced.\n");
    return checks.exit_code();
}
