// Shared experiment harness for the figure benches: runs a scenario through
// the full WiTrack pipeline and collects per-axis tracking errors against
// the simulator's ground truth (the stand-in for VICON, Section 8a).
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/params.hpp"
#include "core/tracker.hpp"
#include "sim/scenario.hpp"

namespace witrack::bench {

struct TrackingErrors {
    std::vector<double> x, y, z;  ///< absolute per-axis errors [m]
    std::vector<double> euclidean;
    std::vector<double> truth_range;  ///< device-to-person distance per sample
    std::size_t frames = 0;
    std::size_t located = 0;

    void append(const TrackingErrors& other) {
        x.insert(x.end(), other.x.begin(), other.x.end());
        y.insert(y.end(), other.y.begin(), other.y.end());
        z.insert(z.end(), other.z.begin(), other.z.end());
        euclidean.insert(euclidean.end(), other.euclidean.begin(),
                         other.euclidean.end());
        truth_range.insert(truth_range.end(), other.truth_range.begin(),
                           other.truth_range.end());
        frames += other.frames;
        located += other.located;
    }
};

/// Shape-check ledger for the paper programs: verdict() returns the word
/// to print for one check and remembers a failure, and exit_code() is the
/// value main returns -- nonzero when any check printed FAIL, so a script
/// or CI step can gate on the paper's claims.
class ShapeChecks {
  public:
    const char* verdict(bool pass) {
        failed_ = failed_ || !pass;
        return pass ? "PASS" : "FAIL";
    }
    int exit_code() const { return failed_ ? 1 : 0; }

  private:
    bool failed_ = false;
};

/// Default pipeline configuration matched to a scenario's FMCW parameters.
inline core::PipelineConfig default_pipeline(const sim::ScenarioConfig& scenario) {
    core::PipelineConfig config;
    config.fmcw = scenario.fmcw;
    return config;
}

/// Run one scenario end to end. Errors are recorded after `settle_s` so the
/// Kalman filters have converged.
inline TrackingErrors run_tracking_experiment(sim::Scenario& scenario,
                                              const core::PipelineConfig& pipeline,
                                              double settle_s = 2.5) {
    core::WiTrackTracker tracker(pipeline, scenario.array());
    TrackingErrors errors;

    sim::Scenario::Frame frame;
    while (scenario.next(frame)) {
        const auto result = tracker.process_frame(frame.sweeps, frame.time_s);
        ++errors.frames;
        if (!result.smoothed || frame.time_s < settle_s) continue;
        ++errors.located;
        const geom::Vec3 est = result.smoothed->position;
        const geom::Vec3 truth = frame.pose.center;
        errors.x.push_back(std::abs(est.x - truth.x));
        errors.y.push_back(std::abs(est.y - truth.y));
        errors.z.push_back(std::abs(est.z - truth.z));
        errors.euclidean.push_back(est.distance_to(truth));
        errors.truth_range.push_back(truth.distance_to(scenario.array().tx));
    }
    return errors;
}

/// Draw a subject "of different height and build" (paper Section 8c: 11
/// subjects, 1.55-1.9 m, varied builds). The pipeline's fixed 11 cm depth
/// compensation then mismatches the subject's true torso depth, exactly as
/// a fixed calibration would across a population.
inline sim::HumanParams random_subject(Rng& rng) {
    sim::HumanParams human;
    human.height_m = rng.uniform(1.55, 1.92);
    human.torso_half_depth_m = rng.uniform(0.085, 0.155);
    human.shoulder_half_width_m = rng.uniform(0.19, 0.26);
    human.gait_wander_m = rng.uniform(0.05, 0.09);
    human.vertical_wander_m = rng.uniform(0.11, 0.20);
    human.arm_length_m = rng.uniform(0.58, 0.72);
    return human;
}

/// Convenience: build a walking scenario with the given seed and run it.
inline TrackingErrors run_walk_experiment(sim::ScenarioConfig config,
                                          double duration_s, std::uint64_t seed,
                                          double speed_max = 1.3) {
    config.seed = seed;
    Rng rng(seed * 7919 + 13);
    config.human = random_subject(rng);
    sim::RoomSpec room;
    room.device_outside = config.through_wall;
    const auto env = sim::make_lab_environment(room);
    auto script = std::make_unique<sim::RandomWaypointWalk>(
        env.bounds, duration_s, rng.fork(1), 0.5, speed_max, 0.2,
        0.57 * config.human.height_m);
    sim::Scenario scenario(config, std::move(script));
    return run_tracking_experiment(scenario, default_pipeline(config));
}

}  // namespace witrack::bench
