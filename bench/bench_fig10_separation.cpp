// Reproduces paper Fig. 10: localization accuracy vs antenna separation
// (25 cm to 2 m, through-wall). Expected shape: accuracy improves on all
// three axes as the T grows -- larger separation moves the ellipsoid foci
// apart, "squashing" the ellipsoids and shrinking the feasible region.
//
// Paper reference at 25 cm separation: median <= 17 / 12 / 31 cm (x/y/z),
// 90th percentile 64 / 35 / 116 cm.
//
// Usage: bench_fig10_separation [--experiments N] [--seconds S] [--seed K]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "dsp/stats.hpp"
#include "harness.hpp"

using namespace witrack;

int main(int argc, char** argv) {
    bench::ShapeChecks checks;
    CliArgs args(argc, argv);
    const int experiments = args.get_int("experiments", args.quick() ? 2 : 5);
    const double seconds = args.get_double("seconds", args.quick() ? 10.0 : 20.0);
    const std::uint64_t seed = args.get_seed(10);

    const std::vector<double> separations{0.25, 0.5, 1.0, 1.5, 2.0};

    print_banner("Fig. 10 reproduction -- accuracy vs antenna separation");
    Table table({"separation (m)", "x med (cm)", "x p90", "y med (cm)", "y p90",
                 "z med (cm)", "z p90"});

    std::vector<double> med_x, med_y, med_z;
    for (double sep : separations) {
        bench::TrackingErrors errors;
        for (int e = 0; e < experiments; ++e) {
            sim::ScenarioConfig config;
            config.through_wall = true;
            config.fast_capture = true;
            config.antenna_separation_m = sep;
            // Same seeds across separations: only the array size changes.
            errors.append(bench::run_walk_experiment(config, seconds, seed + e));
        }
        med_x.push_back(dsp::median(errors.x));
        med_y.push_back(dsp::median(errors.y));
        med_z.push_back(dsp::median(errors.z));
        table.add_row({Table::num(sep, 2),
                       Table::num(dsp::median(errors.x) * 100, 1),
                       Table::num(dsp::percentile(errors.x, 90) * 100, 1),
                       Table::num(dsp::median(errors.y) * 100, 1),
                       Table::num(dsp::percentile(errors.y, 90) * 100, 1),
                       Table::num(dsp::median(errors.z) * 100, 1),
                       Table::num(dsp::percentile(errors.z, 90) * 100, 1)});
    }
    table.print();

    // Shape checks: the smallest array is worse than the largest on every
    // axis (the paper's trend, allowing non-monotone neighbors from noise).
    const bool improves = med_x.front() > med_x.back() &&
                          med_y.front() > med_y.back() &&
                          med_z.front() > med_z.back();
    std::cout << "\nShape checks:\n"
              << "  2 m separation better than 25 cm on all axes: "
              << checks.verdict(improves) << "\n"
              << "  25 cm medians usable (x<35, y<25, z<60 cm; paper 17/12/31): "
              << checks.verdict(med_x.front() < 0.35 && med_y.front() < 0.25 &&
                                med_z.front() < 0.60)
              << "\n";
    return checks.exit_code();
}
