#include "core/fall.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/serialize.hpp"
#include "dsp/stats.hpp"

namespace witrack::core {

std::string activity_name(Activity activity) {
    switch (activity) {
        case Activity::kWalk: return "walk";
        case Activity::kSitChair: return "sit-chair";
        case Activity::kSitFloor: return "sit-floor";
        case Activity::kFall: return "fall";
    }
    return "unknown";
}

namespace {

/// Mean frame spacing of the track; the median window and the dwell are
/// derived from it.
double frame_spacing(std::span<const TrackPoint> track) {
    if (track.size() < 2) return 0.0125;
    return std::max(1e-4, (track.back().time_s - track.front().time_s) /
                              static_cast<double>(track.size() - 1));
}

}  // namespace

void FallDetector::smooth_elevations(std::span<const TrackPoint> track, double dt,
                                     Scratch& scratch) const {
    // A *median* filter is used so that isolated solver spikes cannot fake
    // a threshold crossing. Point i's median runs over raw points
    // [i - half, i + half], clipped to the track. One sweep keeps that
    // window's elevations sorted: each step inserts the entering value and
    // erases the leaving one, so every median is taken over exactly the
    // multiset a per-point sort would see.
    const std::size_t n = track.size();
    const auto half = static_cast<std::size_t>(
        std::max(1.0, config_.smoothing_window_s / dt / 2.0));
    std::vector<double>& z = scratch.z;
    std::vector<double>& sorted = scratch.sorted;
    z.resize(n);
    sorted.clear();
    const auto insert = [&sorted](double value) {
        sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), value), value);
    };
    for (std::size_t j = 0; j < std::min(n, half); ++j) insert(track[j].position.z);
    for (std::size_t i = 0; i < n; ++i) {
        const bool enters = i + half < n, leaves = i > half;
        if (enters && leaves) {
            // Replace in one shift: the leaving slot moves to the entering
            // value's sorted position.
            const double entering = track[i + half].position.z;
            const auto out = std::lower_bound(sorted.begin(), sorted.end(),
                                              track[i - half - 1].position.z);
            const auto in = std::upper_bound(sorted.begin(), sorted.end(), entering);
            if (in <= out) {
                std::move_backward(in, out, out + 1);
                *in = entering;
            } else {
                std::move(out + 1, in, out);
                *(in - 1) = entering;
            }
        } else if (enters) {
            insert(track[i + half].position.z);
        } else if (leaves) {
            const double leaving = track[i - half - 1].position.z;
            sorted.erase(std::lower_bound(sorted.begin(), sorted.end(), leaving));
        }
        z[i] = dsp::percentile_sorted(sorted, 50.0);
    }
}

FallDetector::Analysis FallDetector::analyze(std::span<const TrackPoint> track) const {
    Scratch scratch;
    return analyze(track, scratch);
}

FallDetector::Analysis FallDetector::analyze(std::span<const TrackPoint> track,
                                             Scratch& scratch) const {
    Analysis out;
    if (track.size() < 8) return out;

    const double dt = frame_spacing(track);
    smooth_elevations(track, dt, scratch);
    const std::vector<double>& z = scratch.z;
    std::vector<double>& order = scratch.order;

    // Standing level from the pre-descent portion (first 60% of the
    // episode); a 75th percentile resists both noise spikes and the tail.
    order.assign(z.begin(), z.begin() + static_cast<long>(z.size() * 6 / 10));
    out.initial_elevation_m = dsp::percentile_in_place(order, 75.0);
    const double t_end = track.back().time_s;
    order.clear();
    for (std::size_t i = 0; i < track.size(); ++i)
        if (track[i].time_s >= t_end - 1.0) order.push_back(z[i]);
    if (order.empty()) order.push_back(z.back());
    out.final_elevation_m = dsp::percentile_in_place(order, 50.0);

    out.drop_fraction =
        out.initial_elevation_m > 0.0
            ? (out.initial_elevation_m - out.final_elevation_m) / out.initial_elevation_m
            : 0.0;

    // Condition 1 (Section 6.2): significant elevation change.
    if (out.drop_fraction < config_.min_drop_fraction) {
        out.activity = Activity::kWalk;
        return out;
    }
    // Condition 2: the final elevation must be close to the ground,
    // otherwise the person ended on a chair.
    if (out.final_elevation_m > config_.ground_level_m) {
        out.activity = Activity::kSitChair;
        return out;
    }

    // Condition 3: the change must have happened fast. Measure the 15-85%
    // transition time of the descent with a dwell requirement: the low
    // crossing only counts if the elevation *stays* low for 0.6 s, so a
    // transient dip cannot fake a fast fall.
    const double span = out.initial_elevation_m - out.final_elevation_m;
    const double z_hi = out.initial_elevation_m - 0.15 * span;
    const double z_lo = out.final_elevation_m + 0.15 * span;
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
                    out.drop_duration_s <= config_.max_fall_duration_s)
                       ? Activity::kFall
                       : Activity::kSitFloor;
    return out;
}

std::optional<FallDetector::Analysis> FallDetector::push(const TrackPoint& point) {
    // Keep a 6-second sliding window. The new point never leaves it, so
    // trimming before the append drops the same points as after it.
    while (head_ < window_.size() && point.time_s - window_[head_].time_s > 6.0) ++head_;
    if (window_.size() == window_.capacity() && head_ > 0) {
        window_.erase(window_.begin(), window_.begin() + static_cast<long>(head_));
        head_ = 0;
    }
    window_.push_back(point);
    const std::span<const TrackPoint> live(window_.data() + head_, window_.size() - head_);
    if (live.size() < 32) return std::nullopt;

    if (in_low_state_) {
        // Re-arm only when the person is clearly back up relative to the
        // standing level recorded when the alert fired (the sliding window's
        // own baseline collapses once it contains only post-fall samples).
        if (point.position.z > 0.75 * standing_level_at_alert_) in_low_state_ = false;
        return std::nullopt;
    }
    const Analysis analysis = analyze(live, scratch_);
    if (analysis.activity == Activity::kFall) {
        in_low_state_ = true;
        standing_level_at_alert_ = analysis.initial_elevation_m;
        return analysis;
    }
    return std::nullopt;
}

void FallDetector::save_state(common::StateWriter& writer) const {
    writer.u64(window_.size() - head_);
    for (std::size_t i = head_; i < window_.size(); ++i) core::save_state(writer, window_[i]);
    writer.boolean(in_low_state_);
    writer.f64(standing_level_at_alert_);
}

void FallDetector::load_state(common::StateReader& reader) {
    std::vector<TrackPoint> window(reader.count(kTrackPointStateBytes));
    for (auto& point : window) core::load_state(reader, point);
    const bool in_low_state = reader.boolean();
    const double standing_level_at_alert = reader.f64();
    window_ = std::move(window);
    head_ = 0;
    in_low_state_ = in_low_state;
    standing_level_at_alert_ = standing_level_at_alert;
}

void save_state(common::StateWriter& writer, const FallDetector::Analysis& analysis) {
    writer.u8(static_cast<std::uint8_t>(analysis.activity));
    writer.f64(analysis.initial_elevation_m);
    writer.f64(analysis.final_elevation_m);
    writer.f64(analysis.drop_fraction);
    writer.f64(analysis.drop_duration_s);
}

void load_state(common::StateReader& reader, FallDetector::Analysis& analysis) {
    const auto activity = reader.u8();
    if (activity > static_cast<std::uint8_t>(Activity::kFall))
        throw std::runtime_error("FallDetector: corrupt activity in snapshot");
    analysis.activity = static_cast<Activity>(activity);
    analysis.initial_elevation_m = reader.f64();
    analysis.final_elevation_m = reader.f64();
    analysis.drop_fraction = reader.f64();
    analysis.drop_duration_s = reader.f64();
}

}  // namespace witrack::core
