// Fall detector parity and state tests. FallDetector::analyze builds its
// median-filtered elevation series in one sweep over a sorted window, and
// push trims its 6 s window by advancing an offset; both must reproduce,
// bit for bit, the detector as first written -- a per-point copy-and-sort
// median and a front-erasing window that reruns the analysis on every
// point, kept below as the reference. Covered: recorded walks, the four
// scripted activities, 36%-thinned feeds and tracks with dropout gaps,
// median widths from one point to the whole track, mid-window snapshot
// resume, and rejected snapshots leaving the detector untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "apps/fall_monitor.hpp"
#include "common/random.hpp"
#include "common/serialize.hpp"
#include "core/fall.hpp"
#include "core/tracker.hpp"
#include "sim/environment.hpp"
#include "sim/motion.hpp"
#include "sim/scenario.hpp"

namespace witrack {
namespace {

using core::Activity;
using core::FallDetector;
using core::FallDetectorConfig;
using core::TrackPoint;
using Analysis = FallDetector::Analysis;

// ------------------------------------------------ per-point-median reference

/// Sort, then interpolate: the percentile the reference was written with.
double sorted_percentile(std::vector<double> samples, double p) {
    std::sort(samples.begin(), samples.end());
    const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

std::vector<double> reference_smoothed(const std::vector<TrackPoint>& track,
                                       const FallDetectorConfig& config) {
    std::vector<double> z(track.size());
    if (track.empty()) return z;
    double dt = 0.0125;
    if (track.size() > 1)
        dt = std::max(1e-4, (track.back().time_s - track.front().time_s) /
                                static_cast<double>(track.size() - 1));
    const auto half = static_cast<std::size_t>(
        std::max(1.0, config.smoothing_window_s / dt / 2.0));
    std::vector<double> window;
    for (std::size_t i = 0; i < track.size(); ++i) {
        const std::size_t lo = i >= half ? i - half : 0;
        const std::size_t hi = std::min(track.size(), i + half + 1);
        window.clear();
        for (std::size_t j = lo; j < hi; ++j) window.push_back(track[j].position.z);
        z[i] = sorted_percentile(window, 50.0);
    }
    return z;
}

Analysis reference_analyze(const std::vector<TrackPoint>& track,
                           const FallDetectorConfig& config) {
    Analysis out;
    if (track.size() < 8) return out;
    const std::vector<double> z = reference_smoothed(track, config);
    std::vector<double> head(z.begin(),
                             z.begin() + static_cast<long>(z.size() * 6 / 10));
    out.initial_elevation_m = sorted_percentile(head, 75.0);
    const double t_end = track.back().time_s;
    std::vector<double> tail;
    for (std::size_t i = 0; i < track.size(); ++i)
        if (track[i].time_s >= t_end - 1.0) tail.push_back(z[i]);
    if (tail.empty()) tail.push_back(z.back());
    out.final_elevation_m = sorted_percentile(tail, 50.0);
    out.drop_fraction =
        out.initial_elevation_m > 0.0
            ? (out.initial_elevation_m - out.final_elevation_m) / out.initial_elevation_m
            : 0.0;
    if (out.drop_fraction < config.min_drop_fraction) {
        out.activity = Activity::kWalk;
        return out;
    }
    if (out.final_elevation_m > config.ground_level_m) {
        out.activity = Activity::kSitChair;
        return out;
    }
    const double span = out.initial_elevation_m - out.final_elevation_m;
    const double z_hi = out.initial_elevation_m - 0.15 * span;
    const double z_lo = out.final_elevation_m + 0.15 * span;
    double dt = 0.0125;
    if (track.size() > 1)
        dt = std::max(1e-4, (track.back().time_s - track.front().time_s) /
                                static_cast<double>(track.size() - 1));
    const auto dwell = static_cast<std::size_t>(0.6 / dt);
    std::size_t first_low = track.size();
    for (std::size_t i = 0; i + 1 < track.size(); ++i) {
        if (z[i] > z_lo) continue;
        bool stays_low = true;
        for (std::size_t j = i; j < std::min(track.size(), i + dwell); ++j)
            if (z[j] > z_lo + 0.25 * span) {
                stays_low = false;
                break;
            }
        if (stays_low) {
            first_low = i;
            break;
        }
    }
    std::size_t last_high = 0;
    for (std::size_t i = 0; i < first_low; ++i)
        if (z[i] >= z_hi) last_high = i;
    if (first_low < track.size() && first_low > last_high)
        out.drop_duration_s = track[first_low].time_s - track[last_high].time_s;
    out.activity = (out.drop_duration_s > 0.0 &&
                    out.drop_duration_s <= config.max_fall_duration_s)
                       ? Activity::kFall
                       : Activity::kSitFloor;
    return out;
}

/// The streaming detector as first written: erase the front to trim and
/// analyze every window, even while the alert is latched.
class ReferenceDetector {
  public:
    explicit ReferenceDetector(FallDetectorConfig config) : config_(config) {}

    std::optional<Analysis> push(const TrackPoint& point) {
        window_.push_back(point);
        while (!window_.empty() && point.time_s - window_.front().time_s > 6.0)
            window_.erase(window_.begin());
        if (window_.size() < 32) return std::nullopt;
        last_ = reference_analyze(window_, config_);
        if (in_low_state_) {
            if (point.position.z > 0.75 * standing_level_at_alert_) in_low_state_ = false;
            return std::nullopt;
        }
        if (last_.activity == Activity::kFall) {
            in_low_state_ = true;
            standing_level_at_alert_ = last_.initial_elevation_m;
            return last_;
        }
        return std::nullopt;
    }

    const std::vector<TrackPoint>& window() const { return window_; }
    const Analysis& last_analysis() const { return last_; }

  private:
    FallDetectorConfig config_;
    std::vector<TrackPoint> window_;
    Analysis last_;
    bool in_low_state_ = false;
    double standing_level_at_alert_ = 0.0;
};

// ------------------------------------------------------------- comparison

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Field by field: Analysis has padding after its Activity, so memcmp of
/// the struct would compare indeterminate bytes.
::testing::AssertionResult same_analysis(const Analysis& got, const Analysis& want) {
    if (got.activity == want.activity &&
        same_bits(got.initial_elevation_m, want.initial_elevation_m) &&
        same_bits(got.final_elevation_m, want.final_elevation_m) &&
        same_bits(got.drop_fraction, want.drop_fraction) &&
        same_bits(got.drop_duration_s, want.drop_duration_s))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "got " << core::activity_name(got.activity) << " "
           << got.initial_elevation_m << "/" << got.final_elevation_m << "/"
           << got.drop_fraction << "/" << got.drop_duration_s << ", want "
           << core::activity_name(want.activity) << " " << want.initial_elevation_m
           << "/" << want.final_elevation_m << "/" << want.drop_fraction << "/"
           << want.drop_duration_s;
}

struct ParityCount {
    std::size_t windows = 0;  ///< windows whose analyses were compared
    std::size_t alerts = 0;
    std::size_t falls = 0, sit_floors = 0, sit_chairs = 0;  ///< windows by class
};

/// Streams `track` through FallDetector::push and the reference side by
/// side. Every push result must match, and FallDetector::analyze on every
/// window the reference analyzed must match the reference's analysis.
ParityCount expect_stream_parity(const std::vector<TrackPoint>& track,
                                 const FallDetectorConfig& config = {}) {
    FallDetector detector(config);
    ReferenceDetector reference(config);
    ParityCount count;
    for (std::size_t i = 0; i < track.size(); ++i) {
        const auto want = reference.push(track[i]);
        const auto got = detector.push(track[i]);
        EXPECT_EQ(got.has_value(), want.has_value()) << "point " << i;
        if (got && want) {
            EXPECT_TRUE(same_analysis(*got, *want)) << "point " << i;
        }
        if (want) ++count.alerts;
        if (reference.window().size() < 32) continue;
        const Analysis& expected = reference.last_analysis();
        EXPECT_TRUE(same_analysis(detector.analyze(reference.window()), expected))
            << "window ending at point " << i;
        ++count.windows;
        count.falls += expected.activity == Activity::kFall;
        count.sit_floors += expected.activity == Activity::kSitFloor;
        count.sit_chairs += expected.activity == Activity::kSitChair;
    }
    // The whole track, as the offline study classifies an episode.
    EXPECT_TRUE(same_analysis(detector.analyze(track), reference_analyze(track, config)));
    return count;
}

// ----------------------------------------------------------------- tracks

/// Raw track of one simulated episode through the full pipeline, as the
/// engine's FallMonitorStage receives it.
std::vector<TrackPoint> record(std::unique_ptr<sim::MotionScript> script,
                               std::uint64_t seed) {
    sim::ScenarioConfig config;
    config.fast_capture = true;
    config.seed = seed;
    sim::Scenario scenario(config, std::move(script));
    core::PipelineConfig pipeline;
    pipeline.fmcw = config.fmcw;
    core::WiTrackTracker tracker(pipeline, scenario.array());
    sim::Scenario::Frame frame;
    while (scenario.next(frame)) tracker.process_frame(frame.sweeps, frame.time_s);
    return tracker.raw_track();
}

std::vector<TrackPoint> recorded_walk(std::uint64_t seed) {
    const auto bounds = sim::make_through_wall_lab().bounds;
    return record(std::make_unique<sim::RandomWaypointWalk>(bounds, 12.0, Rng(seed), 0.5,
                                                            1.3, 0.2, 1.0),
                  seed);
}

std::vector<TrackPoint> recorded_fall() {
    // The episode Integration.StreamingFallMonitorFiresOnce alerts on.
    const auto bounds = sim::make_through_wall_lab().bounds;
    return record(std::make_unique<sim::ActivityScript>(sim::ActivityKind::kFall, bounds,
                                                        Rng(6), 18.0),
                  71);
}

/// An 80 Hz track of one scripted activity: the script's body-centre
/// elevation with the raw track's jitter, occasional solver spikes and
/// undetected frames, clamped as the localizer clamps it.
std::vector<TrackPoint> scripted(sim::ActivityKind kind, std::uint64_t seed) {
    const auto bounds = sim::make_through_wall_lab().bounds;
    const sim::ActivityScript script(kind, bounds, Rng(seed), 18.0);
    Rng noise(seed * 7919 + 1);
    std::vector<TrackPoint> track;
    for (double t = 0.0; t < script.duration_s(); t += 0.0125) {
        if (noise.uniform() < 0.05) continue;  // no detection this frame
        TrackPoint point;
        point.time_s = t;
        point.position = script.pose_at(t).center;
        point.position.z += noise.gaussian(0.06);
        if (noise.uniform() < 0.02) point.position.z += noise.uniform(-0.8, 0.8);
        point.position.z = std::clamp(point.position.z, 0.02, 2.6);
        track.push_back(point);
    }
    return track;
}

/// Keep each point with probability 1 - drop (the lossy feed's ~36%).
std::vector<TrackPoint> thinned(const std::vector<TrackPoint>& track, std::uint64_t seed,
                                double drop = 0.36) {
    Rng rng(seed);
    std::vector<TrackPoint> out;
    for (const auto& point : track)
        if (rng.uniform() >= drop) out.push_back(point);
    return out;
}

/// Cut dropout gaps of 0.3-2.5 s into the track, about one every 3 s.
std::vector<TrackPoint> with_gaps(const std::vector<TrackPoint>& track, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<TrackPoint> out;
    double gap_from = rng.uniform(1.0, 4.0), gap_to = gap_from + rng.uniform(0.3, 2.5);
    for (const auto& point : track) {
        if (point.time_s >= gap_to) {
            gap_from = gap_to + rng.uniform(1.0, 4.0);
            gap_to = gap_from + rng.uniform(0.3, 2.5);
        }
        if (point.time_s < gap_from) out.push_back(point);
    }
    return out;
}

/// One recorded walk and one recorded fall, simulated once per process.
const std::vector<TrackPoint>& walk_track() {
    static const std::vector<TrackPoint> track = recorded_walk(5);
    return track;
}
const std::vector<TrackPoint>& fall_track() {
    static const std::vector<TrackPoint> track = recorded_fall();
    return track;
}

// ----------------------------------------------------------------- parity

TEST(FallParity, RecordedWalkFullThinnedAndGapped) {
    const auto& track = walk_track();
    ASSERT_GT(track.size(), 800u);
    for (const auto& feed : {track, thinned(track, 11), with_gaps(track, 12)}) {
        const auto count = expect_stream_parity(feed);
        EXPECT_GT(count.windows, feed.size() / 2);
        EXPECT_EQ(count.alerts, 0u);
    }
}

TEST(FallParity, RecordedFallAlertsOnceOnEveryFeed) {
    const auto& track = fall_track();
    ASSERT_GT(track.size(), 1200u);
    for (const auto& feed : {track, thinned(track, 21), with_gaps(track, 22)}) {
        const auto count = expect_stream_parity(feed);
        EXPECT_GT(count.windows, feed.size() / 2);
        EXPECT_EQ(count.alerts, 1u);
    }
}

TEST(FallParity, FourScriptedActivitiesFullThinnedAndGapped) {
    // Every class the analysis can return must occur in some window, so
    // each of its branches (drop, ground level, dwell and duration) is
    // compared, not just the walk exit.
    ParityCount total;
    for (const auto kind : {sim::ActivityKind::kWalk, sim::ActivityKind::kSitChair,
                            sim::ActivityKind::kSitFloor, sim::ActivityKind::kFall}) {
        const auto seed = static_cast<std::uint64_t>(kind) + 3;
        const auto track = scripted(kind, seed);
        for (const auto& feed :
             {track, thinned(track, seed + 100), with_gaps(track, seed + 200)}) {
            const auto count = expect_stream_parity(feed);
            total.alerts += count.alerts;
            total.falls += count.falls;
            total.sit_floors += count.sit_floors;
            total.sit_chairs += count.sit_chairs;
        }
    }
    EXPECT_GT(total.alerts, 0u);
    EXPECT_GT(total.falls, 0u);
    EXPECT_GT(total.sit_floors, 0u);
    EXPECT_GT(total.sit_chairs, 0u);
}

TEST(FallParity, MedianWidthsFromOnePointToTheWholeTrack) {
    // half = max(1, window / dt / 2) runs from 1 (a zero-length window) to
    // more points than the track holds, where every median spans it all.
    const auto& track = fall_track();
    const auto thin = thinned(track, 31);
    for (const double window_s : {0.0, 0.05, 0.4, 1.3, 40.0}) {
        FallDetectorConfig config;
        config.smoothing_window_s = window_s;
        const FallDetector detector(config);
        for (const auto* feed : {&track, &thin}) {
            EXPECT_TRUE(same_analysis(detector.analyze(*feed),
                                      reference_analyze(*feed, config)))
                << "window " << window_s << " s";
            // Every 6 s window at a 0.5 s stride.
            for (std::size_t begin = 0, end = 0; end < feed->size(); ++end) {
                if (end % 40 != 0) continue;
                while ((*feed)[end].time_s - (*feed)[begin].time_s > 6.0) ++begin;
                const std::vector<TrackPoint> window(feed->begin() + static_cast<long>(begin),
                                                     feed->begin() + static_cast<long>(end) + 1);
                EXPECT_TRUE(same_analysis(detector.analyze(window),
                                          reference_analyze(window, config)))
                    << "window " << window_s << " s ending at point " << end;
            }
        }
    }
}

TEST(FallParity, ShortPrefixes) {
    // Under 8 points analyze returns the default Analysis.
    const auto& track = fall_track();
    const FallDetector detector;
    for (std::size_t n = 0; n <= 40; ++n) {
        const std::vector<TrackPoint> prefix(track.begin(), track.begin() + static_cast<long>(n));
        EXPECT_TRUE(same_analysis(detector.analyze(prefix), reference_analyze(prefix, {})))
            << n << " points";
    }
}

// --------------------------------------------------------------- snapshot

constexpr std::uint32_t kMagic = 0x4c4c4146u;  // "FALL"

template <typename T>
std::string snapshot(const T& target) {
    std::ostringstream out;
    common::StateWriter writer(out, kMagic, 1);
    writer.begin_chunk("FALL");
    target.save_state(writer);
    writer.end_chunk();
    writer.finish();
    return out.str();
}

template <typename T>
void restore(T& target, const std::string& bytes) {
    std::istringstream in(bytes);
    common::StateReader reader(in, kMagic, 1);
    reader.open_chunk("FALL");
    target.load_state(reader);
    reader.close_chunk();
}

/// A one-chunk stream written by `body`, for hand-built (bad) snapshots.
template <typename Body>
std::string stream(Body body) {
    std::ostringstream out;
    common::StateWriter writer(out, kMagic, 1);
    writer.begin_chunk("FALL");
    body(writer);
    writer.end_chunk();
    writer.finish();
    return out.str();
}

TEST(FallSnapshot, MidWindowSnapshotResumesBitIdentically) {
    const auto& track = fall_track();
    FallDetector straight;
    std::vector<std::optional<Analysis>> want;
    for (const auto& point : track) want.push_back(straight.push(point));
    const auto alert = std::find_if(want.begin(), want.end(),
                                    [](const auto& a) { return a.has_value(); });
    ASSERT_NE(alert, want.end());
    const auto alert_at = static_cast<std::size_t>(alert - want.begin());

    // Before the window fills, mid-window, one point before the alert and
    // while the alert is latched.
    for (const std::size_t cut : {std::size_t{20}, track.size() / 3, alert_at, alert_at + 50}) {
        FallDetector first;
        for (std::size_t i = 0; i < cut; ++i) first.push(track[i]);
        FallDetector resumed;
        restore(resumed, snapshot(first));
        EXPECT_EQ(snapshot(resumed), snapshot(first));
        for (std::size_t i = cut; i < track.size(); ++i) {
            const auto got = resumed.push(track[i]);
            ASSERT_EQ(got.has_value(), want[i].has_value()) << "cut " << cut << " point " << i;
            if (got) {
                EXPECT_TRUE(same_analysis(*got, *want[i]));
            }
        }
        EXPECT_EQ(snapshot(resumed), snapshot(straight)) << "cut " << cut;
    }
}

TEST(FallSnapshot, RejectedSnapshotLeavesDetectorUntouched) {
    const auto track = scripted(sim::ActivityKind::kFall, 9);
    const std::size_t cut = track.size() / 2;
    auto fed = [&]() {
        FallDetector detector;
        for (std::size_t i = 0; i < cut; ++i) detector.push(track[i]);
        return detector;
    };
    TrackPoint point;
    point.time_s = 1.0;
    point.position = {0.0, 5.0, 0.3};
    const std::string bad[] = {
        // 40 points claimed, 40 doubles present: the count fits 8-byte
        // elements but not 41-byte points.
        stream([](common::StateWriter& w) {
            w.u64(40);
            for (int i = 0; i < 40; ++i) w.f64(0.5);
        }),
        // Three whole points, then the chunk ends before the latch.
        stream([&](common::StateWriter& w) {
            w.u64(3);
            for (int i = 0; i < 3; ++i) core::save_state(w, point);
        }),
    };
    for (const auto& bytes : bad) {
        const FallDetector control = fed();
        FallDetector target = fed();
        EXPECT_THROW(restore(target, bytes), std::runtime_error);
        EXPECT_EQ(snapshot(target), snapshot(control));
        FallDetector resumed_control = control;
        for (std::size_t i = cut; i < track.size(); ++i) {
            const auto got = target.push(track[i]);
            const auto want = resumed_control.push(track[i]);
            ASSERT_EQ(got.has_value(), want.has_value()) << "point " << i;
        }
    }
}

TEST(FallSnapshot, RejectedSnapshotLeavesMonitorUntouched) {
    const auto track = scripted(sim::ActivityKind::kFall, 9);
    auto fed = [&]() {
        apps::FallMonitor monitor;
        for (const auto& point : track) monitor.push(point);
        return monitor;
    };
    const auto empty_detector = [](common::StateWriter& w) {
        w.u64(0);  // no window points
        w.boolean(false);
        w.f64(0.0);
    };
    const std::string bad[] = {
        // A valid detector state, then an alert with a corrupt activity.
        stream([&](common::StateWriter& w) {
            empty_detector(w);
            w.u64(7);
            w.u64(1);
            w.u8(9);
            for (int i = 0; i < 4; ++i) w.f64(0.25);
        }),
        // Ten alerts claimed, ten doubles present: fits 8-byte elements,
        // not 33-byte alerts.
        stream([&](common::StateWriter& w) {
            empty_detector(w);
            w.u64(7);
            w.u64(10);
            for (int i = 0; i < 10; ++i) w.f64(0.25);
        }),
    };
    for (const auto& bytes : bad) {
        const apps::FallMonitor control = fed();
        ASSERT_GT(control.total_alerts(), 0u);
        apps::FallMonitor target = fed();
        EXPECT_THROW(restore(target, bytes), std::runtime_error);
        EXPECT_EQ(target.total_alerts(), control.total_alerts());
        EXPECT_EQ(snapshot(target), snapshot(control));
    }

    // A whole monitor state round-trips.
    const apps::FallMonitor source = fed();
    apps::FallMonitor restored;
    restore(restored, snapshot(source));
    EXPECT_EQ(restored.total_alerts(), source.total_alerts());
    EXPECT_EQ(snapshot(restored), snapshot(source));
}

}  // namespace
}  // namespace witrack
