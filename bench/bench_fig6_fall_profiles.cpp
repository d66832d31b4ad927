// Reproduces paper Fig. 6: WiTrack's measured elevation over time for the
// four activities (walk, sit on a chair, sit on the ground, fall). The
// figure's message: final elevation separates {walk, sit-chair} from
// {sit-floor, fall}; the *speed* of the elevation change separates a fall
// from sitting on the floor.
//
// Usage: bench_fig6_fall_profiles [--seed K] [--csv traces.csv]
#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/fall.hpp"
#include "core/tracker.hpp"
#include "harness.hpp"

using namespace witrack;

int main(int argc, char** argv) {
    bench::ShapeChecks checks;
    CliArgs args(argc, argv);
    const std::uint64_t seed = args.get_seed(5);
    const auto env = sim::make_through_wall_lab();

    struct Row {
        std::string name;
        sim::ActivityKind kind;
        core::FallDetector::Analysis analysis;
        std::vector<std::pair<double, double>> trace;  // (t, z)
    };
    std::vector<Row> rows = {{"walk", sim::ActivityKind::kWalk, {}, {}},
                             {"sit-chair", sim::ActivityKind::kSitChair, {}, {}},
                             {"sit-floor", sim::ActivityKind::kSitFloor, {}, {}},
                             {"fall", sim::ActivityKind::kFall, {}, {}}};

    core::FallDetector detector;
    for (auto& row : rows) {
        sim::ScenarioConfig config;
        config.fast_capture = true;
        config.seed = seed;
        auto script = std::make_unique<sim::ActivityScript>(row.kind, env.bounds,
                                                            Rng(seed + 3), 24.0);
        sim::Scenario scenario(config, std::move(script));
        core::WiTrackTracker tracker(bench::default_pipeline(config), scenario.array());
        sim::Scenario::Frame frame;
        while (scenario.next(frame)) {
            const auto result = tracker.process_frame(frame.sweeps, frame.time_s);
            if (result.smoothed)
                row.trace.emplace_back(frame.time_s, result.smoothed->position.z);
        }
        row.analysis = detector.analyze(tracker.raw_track());
    }

    print_banner("Fig. 6 reproduction -- elevation traces per activity");
    Table table({"activity", "initial z (m)", "final z (m)", "drop fraction",
                 "15-85% drop time (s)", "classified as"});
    for (const auto& row : rows) {
        const auto& a = row.analysis;
        table.add_row({row.name, Table::num(a.initial_elevation_m, 2),
                       Table::num(a.final_elevation_m, 2),
                       Table::num(a.drop_fraction, 2),
                       a.drop_duration_s > 0 ? Table::num(a.drop_duration_s, 2) : "-",
                       core::activity_name(a.activity)});
    }
    table.print();

    // Elevation time series, decimated to 0.5 s, as the figure's data.
    Table trace({"t (s)", "walk z", "sit-chair z", "sit-floor z", "fall z"});
    for (double t = 0.0; t < 24.0; t += 2.0) {
        std::vector<std::string> cells{Table::num(t, 1)};
        for (const auto& row : rows) {
            double z = 0.0;
            for (const auto& [ts, zs] : row.trace)
                if (ts <= t) z = zs;
            cells.push_back(Table::num(z, 2));
        }
        trace.add_row(cells);
    }
    trace.print();
    if (args.has("csv")) trace.write_csv(args.get("csv"));

    const bool separations =
        rows[0].analysis.final_elevation_m > 0.8 &&           // walk stays up
        rows[1].analysis.final_elevation_m > 0.45 &&          // chair mid-level
        rows[2].analysis.final_elevation_m < 0.45 &&          // floor low
        rows[3].analysis.final_elevation_m < 0.45 &&          // fall low
        (rows[3].analysis.drop_duration_s < rows[2].analysis.drop_duration_s ||
         rows[2].analysis.drop_duration_s == 0.0);            // fall faster
    std::cout << "\nShape check (same separations as paper Fig. 6): "
              << checks.verdict(separations) << "\n";
    return checks.exit_code();
}
