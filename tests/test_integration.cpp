// End-to-end integration tests: full scenarios through the full pipeline --
// tracking accuracy, LOS vs through-wall, fall detection, pointing, the
// static-training extension, multi-person tracking, the RTI baseline, and
// the appliance application.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "apps/appliances.hpp"
#include "apps/fall_monitor.hpp"
#include "baseline/rti.hpp"
#include "core/fall.hpp"
#include "core/multi.hpp"
#include "core/pointing.hpp"
#include "core/tracker.hpp"
#include "dsp/stats.hpp"
#include "sim/scenario.hpp"

namespace witrack {
namespace {

using geom::Vec3;

core::PipelineConfig pipeline_for(const sim::ScenarioConfig& config) {
    core::PipelineConfig p;
    p.fmcw = config.fmcw;
    return p;
}

struct RunResult {
    std::vector<double> ex, ey, ez;
    std::vector<core::TrackPoint> track;
    std::vector<core::TrackPoint> raw_track;
    std::vector<core::TofFrame> tof_frames;
};

RunResult run_scenario(sim::Scenario& scenario, const core::PipelineConfig& pipeline,
                       double settle_s = 2.0, bool keep_tof = false) {
    core::WiTrackTracker tracker(pipeline, scenario.array());
    RunResult result;
    sim::Scenario::Frame frame;
    while (scenario.next(frame)) {
        auto out = tracker.process_frame(frame.sweeps, frame.time_s);
        if (keep_tof) result.tof_frames.push_back(out.tof);
        if (!out.smoothed || frame.time_s < settle_s) continue;
        const Vec3 est = out.smoothed->position;
        result.ex.push_back(std::abs(est.x - frame.pose.center.x));
        result.ey.push_back(std::abs(est.y - frame.pose.center.y));
        result.ez.push_back(std::abs(est.z - frame.pose.center.z));
    }
    result.track = tracker.track();
    result.raw_track = tracker.raw_track();
    return result;
}

// ------------------------------------------------------------ 3D tracking

TEST(Integration, ThroughWallTrackingMediansNearPaper) {
    sim::ScenarioConfig config;
    config.through_wall = true;
    config.fast_capture = true;
    config.seed = 21;
    Rng rng(101);
    const auto env = sim::make_through_wall_lab();
    sim::Scenario scenario(config, std::make_unique<sim::RandomWaypointWalk>(
                                       env.bounds, 20.0, rng.fork(1)));
    const auto result = run_scenario(scenario, pipeline_for(config));
    ASSERT_GT(result.ex.size(), 500u);
    // Paper medians (through wall): 13.1 / 10.25 / 21.0 cm. Allow generous
    // headroom: the claim under test is the error *scale*.
    EXPECT_LT(dsp::median(result.ex), 0.25);
    EXPECT_LT(dsp::median(result.ey), 0.25);
    EXPECT_LT(dsp::median(result.ez), 0.40);
}

TEST(Integration, FullCaptureMatchesFastCapture) {
    // The fast-capture path (1 synthesized averaged sweep per frame) must be
    // statistically equivalent to full 5-sweep synthesis.
    auto run_mode = [](bool fast) {
        sim::ScenarioConfig config;
        config.through_wall = true;
        config.fast_capture = fast;
        config.seed = 31;
        sim::Scenario scenario(config,
                               std::make_unique<sim::LineWalkScript>(
                                   Vec3{-1.5, 5, 0}, Vec3{1.5, 5, 0}, 8.0, 1.0));
        auto r = run_scenario(scenario, pipeline_for(config));
        std::vector<double> e3;
        for (std::size_t i = 0; i < r.ex.size(); ++i)
            e3.push_back(std::sqrt(r.ex[i] * r.ex[i] + r.ey[i] * r.ey[i] +
                                   r.ez[i] * r.ez[i]));
        return dsp::median(e3);
    };
    const double fast = run_mode(true);
    const double full = run_mode(false);
    EXPECT_LT(std::abs(fast - full), 0.15);  // same error scale
}

TEST(Integration, TrackerLatencyWellUnderPaperBudget) {
    // Paper Section 7: software delay < 75 ms per output.
    sim::ScenarioConfig config;
    config.seed = 41;
    sim::Scenario scenario(config, std::make_unique<sim::LineWalkScript>(
                                       Vec3{-1, 5, 0}, Vec3{1, 5, 0}, 3.0, 1.0));
    core::WiTrackTracker tracker(pipeline_for(config), scenario.array());
    sim::Scenario::Frame frame;
    while (scenario.next(frame)) tracker.process_frame(frame.sweeps, frame.time_s);
    EXPECT_GT(tracker.frames_processed(), 100u);
    EXPECT_EQ(tracker.frame_latency().frames, tracker.frames_processed());
    EXPECT_LT(tracker.frame_latency().mean_s(), 0.075);
}

TEST(Integration, StationaryPersonInterpolatedAtLastPosition) {
    // Walk then stop: the pipeline must keep reporting the stop position
    // (paper Section 4.4 interpolation).
    sim::ScenarioConfig config;
    config.fast_capture = true;
    config.seed = 51;

    class WalkThenStop : public sim::MotionScript {
      public:
        sim::Pose pose_at(double t) const override {
            sim::Pose pose;
            if (t < 5.0) {
                pose.center = {geom::lerp({-1, 4, 0}, {1, 6, 0}, t / 5.0)};
                pose.center.z = 1.0;
                pose.speed_mps = 0.57;
            } else {
                pose.center = {1, 6, 1.0};
                pose.speed_mps = 0.0;
                pose.body_static = true;
            }
            return pose;
        }
        double duration_s() const override { return 12.0; }
    };

    sim::Scenario scenario(config, std::make_unique<WalkThenStop>());
    const auto result = run_scenario(scenario, pipeline_for(config), 2.0);
    // The last samples (person static for 7 s) must still be near (1, 6).
    ASSERT_GT(result.track.size(), 100u);
    const auto& last = result.track.back();
    EXPECT_NEAR(last.position.x, 1.0, 0.6);
    EXPECT_NEAR(last.position.y, 6.0, 0.6);
}

TEST(Integration, StaticTrainingLocalizesStaticPerson) {
    // Paper Section 10 extension: with a trained empty-room background, a
    // person who never moves is still localized; with frame differencing
    // she is invisible.
    sim::ScenarioConfig config;
    config.fast_capture = true;
    config.seed = 61;
    config.through_wall = false;

    auto make_scenario = [&] {
        return std::make_unique<sim::Scenario>(
            config, std::make_unique<sim::StandStillScript>(Vec3{0.8, 5.0, 0}, 6.0));
    };

    // Train the background on an empty room (no person -> empty scatterers).
    auto pipeline = pipeline_for(config);
    core::TofEstimator tof(pipeline, 3);
    tof.enable_static_training();
    {
        sim::ScenarioConfig empty_config = config;
        // An empty room: person parked far outside the beam behind the array.
        sim::Scenario empty(empty_config, std::make_unique<sim::StandStillScript>(
                                              Vec3{0, -50, 0}, 2.0));
        sim::Scenario::Frame frame;
        while (empty.next(frame)) tof.train_background(frame.sweeps);
    }

    auto scenario = make_scenario();
    core::Localizer localizer(scenario->array(), pipeline);
    sim::Scenario::Frame frame;
    std::size_t located = 0;
    Vec3 last_pos;
    std::size_t frames = 0;
    while (scenario->next(frame)) {
        const auto tof_frame = tof.process_frame(frame.sweeps, frame.time_s);
        ++frames;
        if (const auto point = localizer.locate(tof_frame)) {
            ++located;
            last_pos = point->position;
        }
    }
    ASSERT_GT(located, frames / 2);
    EXPECT_NEAR(last_pos.x, 0.8, 0.5);
    EXPECT_NEAR(last_pos.y, 5.0, 0.5);

    // Control: frame differencing cannot see the static person.
    core::TofEstimator frame_diff(pipeline, 3);
    auto control = make_scenario();
    std::size_t control_detections = 0;
    while (control->next(frame)) {
        const auto tof_frame = frame_diff.process_frame(frame.sweeps, frame.time_s);
        if (tof_frame.motion_detected(3)) ++control_detections;
    }
    EXPECT_LT(control_detections, 10u);
}

// --------------------------------------------------------- fall detection

TEST(Integration, FallDetectorSeparatesAllFourActivities) {
    const auto env = sim::make_through_wall_lab();
    core::FallDetector detector;

    auto classify_activity = [&](sim::ActivityKind kind, std::uint64_t seed) {
        sim::ScenarioConfig config;
        config.fast_capture = true;
        config.seed = seed;
        auto script = std::make_unique<sim::ActivityScript>(kind, env.bounds,
                                                            Rng(seed), 24.0);
        sim::Scenario scenario(config, std::move(script));
        const auto result = run_scenario(scenario, pipeline_for(config));
        // The paper's study logs episodes and classifies offline; the raw
        // track preserves the fast fall transient.
        return detector.classify(result.raw_track);
    };

    // Pick seeds whose scripts sit in the *typical* region of each class
    // (fast falls, slow floor-sits); the deliberate distribution overlap is
    // exercised statistically by bench_fall_table.
    auto seed_with = [&](sim::ActivityKind kind, auto predicate) -> std::uint64_t {
        for (std::uint64_t seed = 1; seed < 64; ++seed) {
            sim::ActivityScript probe(kind, env.bounds, Rng(seed), 24.0);
            if (predicate(probe)) return seed;
        }
        return 1;
    };
    const auto fall_seed =
        seed_with(sim::ActivityKind::kFall, [](const sim::ActivityScript& s) {
            return s.transition_duration_s() < 0.55;
        });
    const auto sit_floor_seed =
        seed_with(sim::ActivityKind::kSitFloor, [](const sim::ActivityScript& s) {
            return s.transition_duration_s() > 1.8;
        });
    EXPECT_EQ(classify_activity(sim::ActivityKind::kWalk, 3),
              core::Activity::kWalk);
    EXPECT_EQ(classify_activity(sim::ActivityKind::kSitChair, 4),
              core::Activity::kSitChair);
    // A slow floor-sit must never be read as a fall; the exact floor/chair
    // boundary is statistical (bench_fall_table measures it), so accept
    // either ground-level class here.
    const auto floor_class =
        classify_activity(sim::ActivityKind::kSitFloor, sit_floor_seed);
    EXPECT_NE(floor_class, core::Activity::kFall);
    EXPECT_NE(floor_class, core::Activity::kWalk);
    EXPECT_EQ(classify_activity(sim::ActivityKind::kFall, fall_seed),
              core::Activity::kFall);
}

TEST(Integration, StreamingFallMonitorFiresOnce) {
    const auto env = sim::make_through_wall_lab();
    sim::ScenarioConfig config;
    config.fast_capture = true;
    config.seed = 71;
    auto script = std::make_unique<sim::ActivityScript>(sim::ActivityKind::kFall,
                                                        env.bounds, Rng(6), 24.0);
    sim::Scenario scenario(config, std::move(script));
    const auto result = run_scenario(scenario, pipeline_for(config));

    apps::FallMonitor monitor;
    int alerts = 0;
    monitor.on_fall([&](const core::FallDetector::Analysis&) { ++alerts; });
    for (const auto& point : result.raw_track) monitor.push(point);
    EXPECT_EQ(alerts, 1);
    ASSERT_EQ(monitor.alerts().size(), 1u);
    EXPECT_LT(monitor.alerts()[0].final_elevation_m, 0.45);
}

// --------------------------------------------------------------- pointing

TEST(Integration, PointingDirectionRecovered) {
    sim::ScenarioConfig config;
    config.fast_capture = true;
    config.through_wall = true;
    config.seed = 81;

    const Vec3 truth_dir = Vec3{0.5, 0.7, 0.2}.normalized();
    auto script = std::make_unique<sim::PointingScript>(Vec3{0.5, 4.5, 0},
                                                        truth_dir, Rng(5));
    const auto* script_ptr = script.get();
    sim::Scenario scenario(config, std::move(script));

    auto pipeline = pipeline_for(config);
    core::TofEstimator tof(pipeline, 3);
    std::vector<core::TofFrame> frames;
    sim::Scenario::Frame frame;
    while (scenario.next(frame))
        frames.push_back(tof.process_frame(frame.sweeps, frame.time_s));

    core::PointingEstimator estimator(pipeline, scenario.array());
    const auto result = estimator.analyze(frames);
    ASSERT_TRUE(result.has_value());
    const double err = rad_to_deg(
        geom::angle_between(result->direction, script_ptr->true_direction()));
    // Single-seed tolerance; the distribution (median/90th vs the paper's
    // 11.2/37.9 deg) is measured by bench_fig11_pointing.
    EXPECT_LT(err, 50.0);
}

TEST(Integration, WholeBodyMotionRejectedAsGesture) {
    // A walking person must NOT be classified as an arm gesture
    // (Section 6.1's reflection-surface variance test).
    sim::ScenarioConfig config;
    config.fast_capture = true;
    config.seed = 91;
    sim::Scenario scenario(config, std::make_unique<sim::LineWalkScript>(
                                       Vec3{-1.5, 5, 0}, Vec3{1.5, 5, 0}, 6.0, 1.0));
    auto pipeline = pipeline_for(config);
    core::TofEstimator tof(pipeline, 3);
    std::vector<core::TofFrame> frames;
    sim::Scenario::Frame frame;
    while (scenario.next(frame))
        frames.push_back(tof.process_frame(frame.sweeps, frame.time_s));

    core::PointingEstimator estimator(pipeline, scenario.array());
    EXPECT_FALSE(estimator.looks_like_body_part(frames));
    EXPECT_FALSE(estimator.analyze(frames).has_value());
}

TEST(Integration, PointingDrivesApplianceRegistry) {
    sim::ScenarioConfig config;
    config.fast_capture = true;
    config.seed = 92;
    const Vec3 stand{0.0, 5.0, 0};
    const Vec3 lamp_pos{2.0, 7.5, 1.2};
    const Vec3 dir = (lamp_pos - Vec3{stand.x, stand.y, 1.3}).normalized();
    auto script = std::make_unique<sim::PointingScript>(stand, dir, Rng(7));
    sim::Scenario scenario(config, std::move(script));

    auto pipeline = pipeline_for(config);
    core::TofEstimator tof(pipeline, 3);
    std::vector<core::TofFrame> frames;
    sim::Scenario::Frame frame;
    while (scenario.next(frame))
        frames.push_back(tof.process_frame(frame.sweeps, frame.time_s));
    core::PointingEstimator estimator(pipeline, scenario.array());
    const auto pointing = estimator.analyze(frames);
    ASSERT_TRUE(pointing.has_value());

    apps::ApplianceRegistry registry(deg_to_rad(35.0));
    registry.add("lamp", lamp_pos);
    registry.add("screen", {-2.5, 6.0, 1.0});  // far off the pointing ray
    apps::InsteonDriver driver;
    const auto actuated = registry.actuate(*pointing, driver);
    ASSERT_TRUE(actuated.has_value());
    EXPECT_EQ(*actuated, "lamp");
    ASSERT_EQ(driver.log().size(), 1u);
    EXPECT_TRUE(driver.log()[0].turn_on);
}

// ----------------------------------------------------------- multi-person

TEST(Integration, TracksTwoPeopleWithContinuity) {
    sim::ScenarioConfig config;
    config.fast_capture = true;
    config.second_person = true;
    config.seed = 93;
    auto s1 = std::make_unique<sim::LineWalkScript>(Vec3{-2.0, 4, 0},
                                                    Vec3{-0.5, 6.5, 0}, 10.0, 1.0);
    auto s2 = std::make_unique<sim::LineWalkScript>(Vec3{2.0, 6.5, 0},
                                                    Vec3{0.8, 4.0, 0}, 10.0, 1.0);
    sim::Scenario scenario(config, std::move(s1), std::move(s2));

    auto pipeline = pipeline_for(config);
    pipeline.contour_peaks = 3;  // extra peaks absorb multipath ghosts
    core::TofEstimator tof(pipeline, 3);
    core::MultiPersonTracker tracker(pipeline, scenario.array(), 2);

    sim::Scenario::Frame frame;
    std::vector<double> err1, err2;
    while (scenario.next(frame)) {
        const auto tof_frame = tof.process_frame(frame.sweeps, frame.time_s);
        const auto people = tracker.process(tof_frame, frame.time_s);
        if (frame.time_s < 3.0 || people.size() < 2) continue;
        if (!frame.pose2) continue;
        // Match each estimate to its nearest truth (identity can swap).
        const Vec3 t1 = frame.pose.center;
        const Vec3 t2 = frame.pose2->center;
        const auto& p1 = people[0].position;
        const auto& p2 = people[1].position;
        const double direct = p1.distance_to(t1) + p2.distance_to(t2);
        const double swapped = p1.distance_to(t2) + p2.distance_to(t1);
        if (direct <= swapped) {
            err1.push_back(p1.distance_to(t1));
            err2.push_back(p2.distance_to(t2));
        } else {
            err1.push_back(p1.distance_to(t2));
            err2.push_back(p2.distance_to(t1));
        }
    }
    ASSERT_GT(err1.size(), 200u);
    // The paper leaves multi-person tracking to future work (Section 10);
    // this extension demonstrates feasibility: the dominant person tracks at
    // sub-meter accuracy and the second is followed coarsely (the 8-candidate
    // ellipsoid ambiguity plus the weaker echo make it noisier).
    EXPECT_LT(dsp::median(err1), 1.0);
    EXPECT_LT(dsp::median(err2), 3.0);
}

// ------------------------------------------------------------ RTI baseline

TEST(Integration, RtiLocalizesCoarsely) {
    const auto env = sim::make_through_wall_lab();
    baseline::RtiNetwork rti(baseline::RtiConfig{}, env.bounds, Rng(17));
    Rng rng(18);
    std::vector<double> errors;
    for (int i = 0; i < 60; ++i) {
        const Vec3 person{rng.uniform(env.bounds.x_min + 0.5, env.bounds.x_max - 0.5),
                          rng.uniform(env.bounds.y_min + 0.5, env.bounds.y_max - 0.5),
                          1.0};
        const Vec3 est = rti.locate(person);
        errors.push_back(std::hypot(est.x - person.x, est.y - person.y));
    }
    const double med = dsp::median(errors);
    EXPECT_LT(med, 1.2);   // it does localize...
    EXPECT_GT(med, 0.25);  // ...but much more coarsely than WiTrack
}

TEST(Integration, RtiImagePeaksNearPerson) {
    const auto env = sim::make_through_wall_lab();
    baseline::RtiConfig config;
    config.rssi_noise_db = 0.1;  // near-noiseless: blob must sit on the person
    baseline::RtiNetwork rti(config, env.bounds, Rng(19));
    const Vec3 person{0.5, 5.5, 1.0};
    const Vec3 est = rti.locate(person);
    EXPECT_NEAR(est.x, person.x, 0.5);
    EXPECT_NEAR(est.y, person.y, 0.5);
}

TEST(Integration, RtiRejectsBadMeasurementSize) {
    const auto env = sim::make_through_wall_lab();
    baseline::RtiNetwork rti(baseline::RtiConfig{}, env.bounds, Rng(20));
    EXPECT_THROW(rti.estimate(std::vector<double>(3, 0.0)), std::invalid_argument);
}

}  // namespace
}  // namespace witrack
