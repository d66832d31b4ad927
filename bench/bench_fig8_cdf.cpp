// Reproduces paper Fig. 8: CDFs of the per-axis 3D tracking error in
// (a) line-of-sight and (b) through-wall deployments.
//
// Paper reference values (Section 9.1):
//   LOS medians:          x 9.9 cm,  y 8.6 cm,   z 17.7 cm
//   Through-wall medians: x 13.1 cm, y 10.25 cm, z 21.0 cm
//   "even the 90th percentile ... stays within one foot along x/y and two
//    feet along z" (through-wall).
//
// Usage: bench_fig8_cdf [--experiments N] [--seconds S] [--seed K]
//                       [--quick] [--full] [--csv out.csv]
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "dsp/stats.hpp"
#include "harness.hpp"

using namespace witrack;

namespace {

struct ModeResult {
    bench::TrackingErrors errors;
    std::string name;
};

void print_mode(const ModeResult& mode, double paper_x_cm, double paper_y_cm,
                double paper_z_cm) {
    const dsp::EmpiricalCdf cx(mode.errors.x), cy(mode.errors.y), cz(mode.errors.z);
    print_banner("Fig. 8 " + mode.name + " -- location error CDF (" +
                 std::to_string(mode.errors.x.size()) + " samples)");

    Table summary({"axis", "paper median (cm)", "measured median (cm)",
                   "measured 90th (cm)"});
    summary.add_row({"x", Table::num(paper_x_cm, 1), Table::num(cx.median() * 100, 1),
                     Table::num(cx.percentile(90) * 100, 1)});
    summary.add_row({"y", Table::num(paper_y_cm, 1), Table::num(cy.median() * 100, 1),
                     Table::num(cy.percentile(90) * 100, 1)});
    summary.add_row({"z", Table::num(paper_z_cm, 1), Table::num(cz.median() * 100, 1),
                     Table::num(cz.percentile(90) * 100, 1)});
    summary.print();

    Table curve({"error (cm)", "CDF x", "CDF y", "CDF z"});
    for (int cm = 0; cm <= 100; cm += 10) {
        const double m = cm / 100.0;
        curve.add_row({std::to_string(cm), Table::num(cx.fraction_below(m), 3),
                       Table::num(cy.fraction_below(m), 3),
                       Table::num(cz.fraction_below(m), 3)});
    }
    curve.print();
}

}  // namespace

int main(int argc, char** argv) {
    bench::ShapeChecks checks;
    CliArgs args(argc, argv);
    // Paper scale: 100 experiments x 60 s per mode. Default here is reduced
    // for runtime; --full restores the paper's scale.
    int experiments = args.get_int("experiments", args.quick() ? 4 : 12);
    double seconds = args.get_double("seconds", args.quick() ? 10.0 : 25.0);
    if (args.has("full")) {
        experiments = 100;
        seconds = 60.0;
    }
    const std::uint64_t seed = args.get_seed(42);

    std::cout << "Fig. 8 reproduction: " << experiments << " experiments x "
              << seconds << " s per mode (paper: 100 x 60 s)\n";

    ModeResult los{{}, "(a) line-of-sight"};
    ModeResult wall{{}, "(b) through-wall"};

    for (int e = 0; e < experiments; ++e) {
        // Same seed for both modes: identical subject and trajectory, so the
        // LOS-vs-through-wall comparison isolates the wall.
        sim::ScenarioConfig config;
        config.fast_capture = true;  // statistically equivalent averaged frames
        config.through_wall = false;
        los.errors.append(bench::run_walk_experiment(config, seconds, seed + e));
        config.through_wall = true;
        wall.errors.append(bench::run_walk_experiment(config, seconds, seed + e));
    }

    print_mode(los, 9.9, 8.6, 17.7);
    print_mode(wall, 13.1, 10.25, 21.0);

    const dsp::EmpiricalCdf wx(wall.errors.x), wy(wall.errors.y), wz(wall.errors.z);
    std::cout << "\nShape checks (through-wall):\n"
              << "  y median < x median: "
              << checks.verdict(wy.median() < wx.median()) << "\n"
              << "  x median < z median: "
              << checks.verdict(wx.median() < wz.median()) << "\n"
              << "  90th pct x/y within one foot (30.5 cm): "
              << checks.verdict(wx.percentile(90) < 0.305 && wy.percentile(90) < 0.305)
              << "\n"
              << "  90th pct z within two feet (61 cm): "
              << checks.verdict(wz.percentile(90) < 0.61) << "\n";

    const dsp::EmpiricalCdf lx(los.errors.x), ly(los.errors.y), lz(los.errors.z);
    std::cout << "  LOS median <= through-wall median (each axis): "
              << checks.verdict(lx.median() <= wx.median() + 0.02 &&
                                ly.median() <= wy.median() + 0.02 &&
                                lz.median() <= wz.median() + 0.02)
              << "\n";

    if (args.has("csv")) {
        Table csv({"mode", "axis", "median_cm", "p90_cm"});
        csv.add_row({"los", "x", Table::num(lx.median() * 100, 2),
                     Table::num(lx.percentile(90) * 100, 2)});
        csv.add_row({"los", "y", Table::num(ly.median() * 100, 2),
                     Table::num(ly.percentile(90) * 100, 2)});
        csv.add_row({"los", "z", Table::num(lz.median() * 100, 2),
                     Table::num(lz.percentile(90) * 100, 2)});
        csv.add_row({"wall", "x", Table::num(wx.median() * 100, 2),
                     Table::num(wx.percentile(90) * 100, 2)});
        csv.add_row({"wall", "y", Table::num(wy.median() * 100, 2),
                     Table::num(wy.percentile(90) * 100, 2)});
        csv.add_row({"wall", "z", Table::num(wz.median() * 100, 2),
                     Table::num(wz.percentile(90) * 100, 2)});
        csv.write_csv(args.get("csv"));
    }
    return checks.exit_code();
}
