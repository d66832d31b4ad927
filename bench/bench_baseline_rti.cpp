// Reproduces the paper's Section 2 comparison against radio tomographic
// imaging: "[WiTrack's] 2D accuracy is more than 5x higher than the state
// of the art radio tomographic networks [23]" -- despite RTI using tens of
// sensors versus WiTrack's four antennas.
//
// The same trajectories are run through both systems: WiTrack end-to-end
// (FMCW synthesis + full pipeline) and the RTI network (perimeter RSSI
// sensors + regularized image reconstruction).
//
// Usage: bench_baseline_rti [--experiments N] [--seconds S] [--seed K]
#include <iostream>
#include <memory>

#include "baseline/rti.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "dsp/stats.hpp"
#include "harness.hpp"

using namespace witrack;

int main(int argc, char** argv) {
    bench::ShapeChecks checks;
    CliArgs args(argc, argv);
    const int experiments = args.get_int("experiments", args.quick() ? 2 : 6);
    const double seconds = args.get_double("seconds", args.quick() ? 10.0 : 20.0);
    const std::uint64_t seed = args.get_seed(15);

    const auto env = sim::make_through_wall_lab();
    std::vector<double> witrack_2d, rti_2d;
    baseline::RtiNetwork rti(baseline::RtiConfig{}, env.bounds, Rng(seed + 999));

    for (int e = 0; e < experiments; ++e) {
        sim::ScenarioConfig config;
        config.through_wall = true;
        config.fast_capture = true;
        config.seed = seed + e;
        Rng rng(seed * 53 + e);
        config.human = bench::random_subject(rng);
        auto script = std::make_unique<sim::RandomWaypointWalk>(
            env.bounds, seconds, rng.fork(1), 0.5, 1.3, 0.2,
            0.57 * config.human.height_m);
        const auto* script_ptr = script.get();
        sim::Scenario scenario(config, std::move(script));

        // WiTrack path.
        core::WiTrackTracker tracker(bench::default_pipeline(config), scenario.array());
        sim::Scenario::Frame frame;
        while (scenario.next(frame)) {
            const auto result = tracker.process_frame(frame.sweeps, frame.time_s);
            if (!result.smoothed || frame.time_s < 2.5) continue;
            const auto est = result.smoothed->position;
            const auto truth = frame.pose.center;
            witrack_2d.push_back(std::hypot(est.x - truth.x, est.y - truth.y));
        }

        // RTI path: same ground-truth trajectory sampled at the RTI network's
        // (slower) 10 Hz update rate.
        for (double t = 2.5; t < seconds; t += 0.1) {
            const auto pose = script_ptr->pose_at(t);
            const auto est = rti.locate(pose.center);
            rti_2d.push_back(std::hypot(est.x - pose.center.x, est.y - pose.center.y));
        }
    }

    print_banner("RTI baseline comparison (paper Section 2: WiTrack >5x better in 2D)");
    const double wt_med = dsp::median(witrack_2d);
    const double rti_med = dsp::median(rti_2d);
    Table table({"system", "sensors", "2D median (cm)", "2D 90th pct (cm)"});
    table.add_row({"WiTrack (this work)", "1 Tx + 3 Rx",
                   Table::num(wt_med * 100, 1),
                   Table::num(dsp::percentile(witrack_2d, 90) * 100, 1)});
    table.add_row({"RTI [Wilson & Patwari]",
                   std::to_string(rti.num_nodes()) + " nodes / " +
                       std::to_string(rti.num_links()) + " links",
                   Table::num(rti_med * 100, 1),
                   Table::num(dsp::percentile(rti_2d, 90) * 100, 1)});
    table.print();

    const double advantage = rti_med / wt_med;
    std::cout << "\nWiTrack accuracy advantage: " << Table::num(advantage, 1)
              << "x (paper: >5x)\n"
              << "Shape check (advantage >= 3x): "
              << checks.verdict(advantage >= 3.0) << "\n";
    return checks.exit_code();
}
