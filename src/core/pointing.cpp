#include "core/pointing.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/regression.hpp"

namespace witrack::core {

namespace {

/// Frames with >= this many detecting antennas count as "active".
constexpr std::size_t kDetectionQuorum = 2;
/// Minimum silence between the lift and drop bursts [s].
constexpr double kMinGapS = 0.35;
/// Minimum/maximum burst length [s] for a plausible arm motion.
constexpr double kMinBurstS = 0.30;
constexpr double kMaxBurstS = 2.50;
/// Mean reflection extent above this is a whole-body motion, not an arm
/// (Section 6.1's variance criterion).
constexpr double kMaxArmExtentM = 0.55;

}  // namespace

PointingEstimator::PointingEstimator(const PipelineConfig& pipeline,
                                     const geom::ArrayGeometry& array)
    : localizer_(array, pipeline), num_rx_(array.rx.size()) {}

std::vector<PointingEstimator::Burst> PointingEstimator::segment(
    const std::vector<TofFrame>& frames) const {
    std::vector<Burst> bursts;
    // Sentinel instead of std::optional: GCC 12's -Wmaybe-uninitialized
    // fires on the disengaged payload under -O2, and -Werror is kept on.
    constexpr std::size_t kNoBurst = static_cast<std::size_t>(-1);
    std::size_t start = kNoBurst;

    auto close_burst = [&](std::size_t end_index) {
        if (start == kNoBurst) return;
        Burst b;
        b.begin = start;
        b.end = end_index;
        b.t_begin = frames[b.begin].time_s;
        b.t_end = frames[b.end - 1].time_s;
        const double len = b.t_end - b.t_begin;
        if (len >= kMinBurstS && len <= kMaxBurstS)
            bursts.push_back(b);
        start = kNoBurst;
    };

    // A short dropout inside a burst should not split it: tolerate up to
    // two consecutive inactive frames.
    std::size_t inactive_run = 0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const bool active = frames[i].motion_detected(kDetectionQuorum);
        if (active) {
            if (start == kNoBurst) start = i;
            inactive_run = 0;
        } else if (start != kNoBurst) {
            if (++inactive_run > 2) {
                close_burst(i - inactive_run + 1);
                inactive_run = 0;
            }
        }
    }
    close_burst(frames.size());

    // Merge bursts separated by less than min_gap_s (jitter inside one arm
    // motion).
    std::vector<Burst> merged;
    for (const auto& b : bursts) {
        if (!merged.empty() && b.t_begin - merged.back().t_end < kMinGapS) {
            merged.back().end = b.end;
            merged.back().t_end = b.t_end;
        } else {
            merged.push_back(b);
        }
    }
    return merged;
}

bool PointingEstimator::looks_like_body_part(const std::vector<TofFrame>& frames) const {
    double extent_acc = 0.0;
    std::size_t n = 0;
    for (const auto& f : frames) {
        if (!f.motion_detected(kDetectionQuorum)) continue;
        extent_acc += f.mean_extent_m();
        ++n;
    }
    if (n == 0) return false;
    return extent_acc / static_cast<double>(n) <= kMaxArmExtentM;
}

std::optional<std::pair<double, double>> PointingEstimator::regress_antenna(
    const std::vector<TofFrame>& frames, const Burst& burst, std::size_t antenna) const {
    std::vector<double> t, d;
    for (std::size_t i = burst.begin; i < burst.end; ++i) {
        const auto& a = frames[i].antennas[antenna];
        if (!a.contour.detected) continue;
        t.push_back(frames[i].time_s - burst.t_begin);
        d.push_back(a.contour.round_trip_m);
    }
    if (t.size() < 5) return std::nullopt;

    // Robust regression (Section 6.1): the arm contour has occasional
    // multipath outliers; Huber IRLS downweights them.
    const auto fit = dsp::fit_huber(t, d, 1.2);
    if (!fit.valid) return std::nullopt;
    return std::make_pair(fit.at(0.0), fit.at(burst.t_end - burst.t_begin));
}

std::optional<std::pair<geom::Vec3, geom::Vec3>> PointingEstimator::burst_endpoints(
    const std::vector<TofFrame>& frames, const Burst& burst) const {
    std::vector<double> start_rt, end_rt;
    for (std::size_t rx = 0; rx < num_rx_; ++rx) {
        const auto ends = regress_antenna(frames, burst, rx);
        if (!ends) return std::nullopt;
        start_rt.push_back(ends->first);
        end_rt.push_back(ends->second);
    }
    const auto start = localizer_.locate_round_trips(start_rt, burst.t_begin, false);
    const auto end = localizer_.locate_round_trips(end_rt, burst.t_end, false);
    if (!start || !end) return std::nullopt;
    return std::make_pair(start->position, end->position);
}

std::optional<PointingResult> PointingEstimator::analyze(
    const std::vector<TofFrame>& frames) const {
    if (frames.size() < 16) return std::nullopt;
    if (!looks_like_body_part(frames)) return std::nullopt;

    const auto bursts = segment(frames);
    if (bursts.empty()) return std::nullopt;

    // Expect lift + drop; tolerate a single burst (direction from the lift
    // only) but flag it.
    const auto lift = burst_endpoints(frames, bursts.front());
    if (!lift) return std::nullopt;
    geom::Vec3 direction = lift->second - lift->first;

    PointingResult result;
    result.hand_start = lift->first;
    result.hand_end = lift->second;

    if (bursts.size() >= 2) {
        // The drop mirrors the lift: its motion runs extended -> rest, so
        // its negation is a second estimate of the pointing direction.
        const auto drop = burst_endpoints(frames, bursts.back());
        if (drop) {
            const geom::Vec3 drop_dir = drop->first - drop->second;
            if (direction.norm() > 1e-6 && drop_dir.norm() > 1e-6) {
                direction = direction.normalized() + drop_dir.normalized();
                result.used_both_bursts = true;
            }
        }
    }

    if (direction.norm() < 1e-6) return std::nullopt;
    result.direction = direction.normalized();
    result.azimuth_rad = std::atan2(result.direction.x, result.direction.y);
    result.elevation_rad = std::asin(std::clamp(result.direction.z, -1.0, 1.0));

    double extent_acc = 0.0;
    std::size_t n = 0;
    for (const auto& f : frames)
        if (f.motion_detected(kDetectionQuorum)) {
            extent_acc += f.mean_extent_m();
            ++n;
        }
    result.mean_extent_m = n > 0 ? extent_acc / static_cast<double>(n) : 0.0;
    return result;
}

}  // namespace witrack::core
