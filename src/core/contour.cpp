#include "core/contour.hpp"

#include <algorithm>
#include <cmath>

namespace witrack::core {

namespace {

/// A local maximum counts as motion when its magnitude exceeds
/// noise_floor * kContourThreshold (paper Section 4.3 "substantially above
/// the noise floor").
constexpr double kContourThreshold = 5.0;

struct BinWindow {
    std::size_t lo, hi;  // [lo, hi)
};

BinWindow usable_window(const PipelineConfig& config, std::size_t bins,
                        double bin_round_trip_m) {
    const auto lo = static_cast<std::size_t>(
        std::max(1.0, config.min_round_trip_m / bin_round_trip_m));
    return {std::min(lo, bins), tracked_band(bins, bin_round_trip_m)};
}

// Robust per-frame noise floor from the usable band; median magnitude is
// dominated by empty bins because the body occupies only a few. The scratch
// caches the result per (lo, hi) band, so the gated re-detection pass of
// the same frame reuses the floor the detection pass computed instead of
// re-selecting it -- one order-statistics pass per antenna per frame.
double banded_noise_floor(const std::vector<double>& magnitude, std::size_t lo,
                          std::size_t hi, ContourScratch& scratch) {
    if (scratch.floor_valid && scratch.floor_lo == lo && scratch.floor_hi == hi)
        return scratch.floor_value;
    scratch.floor_samples.assign(magnitude.begin() + static_cast<long>(lo),
                                 magnitude.begin() + static_cast<long>(hi));
    scratch.floor_value = dsp::noise_floor_inplace(scratch.floor_samples, 50.0);
    scratch.floor_valid = true;
    scratch.floor_lo = lo;
    scratch.floor_hi = hi;
    return scratch.floor_value;
}

}  // namespace

std::size_t tracked_band(std::size_t bins, double bin_round_trip_m) {
    return std::min(bins,
                    static_cast<std::size_t>(kMaxRoundTripM / bin_round_trip_m) + 1);
}

double ContourTracker::measure_extent(const std::vector<double>& magnitude,
                                      double threshold, std::size_t lo, std::size_t hi,
                                      double bin_round_trip_m) const {
    const dsp::Moments m = dsp::extent_moments(
        magnitude.data(), lo, hi, threshold, bin_round_trip_m);
    if (m.w_sum <= 0.0) return 0.0;
    const double mean = m.m1 / m.w_sum;
    return std::sqrt(std::max(0.0, m.m2 / m.w_sum - mean * mean));
}

void ContourTracker::extract_peaks_into(const std::vector<double>& magnitude,
                                        double bin_round_trip_m,
                                        std::size_t max_peaks,
                                        ContourScratch& scratch,
                                        std::vector<ContourPoint>& out) const {
    out.clear();
    if (magnitude.size() < 8 || max_peaks == 0) return;

    const auto [lo, hi] = usable_window(config_, magnitude.size(), bin_round_trip_m);
    if (lo + 4 >= hi) return;

    const double floor = banded_noise_floor(magnitude, lo, hi, scratch);
    const double threshold = floor * kContourThreshold;

    // Closest-first local maxima, kept at least 2 bins apart so one body
    // echo is not double-counted.
    dsp::find_peaks_window(magnitude.data(), lo, hi, threshold, 3, scratch.peaks);
    const double extent =
        measure_extent(magnitude, threshold, lo, hi, bin_round_trip_m);

    for (const auto& peak : scratch.peaks) {
        if (out.size() >= max_peaks) break;
        ContourPoint point;
        point.detected = true;
        point.round_trip_m = peak.interpolated * bin_round_trip_m;
        point.power = peak.value;
        point.noise_floor = floor;
        point.extent_m = extent;
        out.push_back(point);
    }
}

ContourPoint ContourTracker::extract(const std::vector<double>& magnitude,
                                     double bin_round_trip_m,
                                     ContourScratch& scratch) const {
    extract_peaks_into(magnitude, bin_round_trip_m, 1, scratch, scratch.points);
    if (!scratch.points.empty()) return scratch.points.front();
    ContourPoint none;
    if (magnitude.size() >= 8) {
        const auto [lo, hi] = usable_window(config_, magnitude.size(), bin_round_trip_m);
        if (lo + 4 < hi) none.noise_floor = banded_noise_floor(magnitude, lo, hi, scratch);
    }
    return none;
}

ContourPoint ContourTracker::extract_near(const std::vector<double>& magnitude,
                                          double bin_round_trip_m, double center_m,
                                          double window_m, ContourScratch& scratch,
                                          double relax) const {
    ContourPoint point;
    if (magnitude.size() < 8) return point;
    const auto [glo, ghi] = usable_window(config_, magnitude.size(), bin_round_trip_m);
    if (glo + 4 >= ghi) return point;

    // Noise floor still comes from the full usable band (cached when the
    // detection pass of this frame already computed it).
    const double floor = banded_noise_floor(magnitude, glo, ghi, scratch);
    const double threshold = floor * kContourThreshold * relax;

    const double lo_m = std::max(center_m - window_m,
                                 static_cast<double>(glo) * bin_round_trip_m);
    const double hi_m = std::min(center_m + window_m,
                                 static_cast<double>(ghi - 1) * bin_round_trip_m);
    const auto lo = static_cast<std::size_t>(lo_m / bin_round_trip_m);
    const auto hi = static_cast<std::size_t>(hi_m / bin_round_trip_m) + 1;
    if (lo + 2 >= hi || hi > magnitude.size()) return point;

    // Strongest bin inside the gate (the gate is narrow, so "strongest"
    // and "closest" coincide for a single body). max_bin keeps the first
    // index of the maximum, matching a forward strictly-greater scan.
    const std::size_t best =
        lo + 1 + dsp::max_bin(magnitude.data() + lo + 1, hi - lo - 2);
    if (magnitude[best] < threshold) {
        point.noise_floor = floor;
        return point;
    }
    point.detected = true;
    point.round_trip_m =
        dsp::parabolic_peak_position_window(magnitude.data(), 0,
                                            magnitude.size(), best) *
        bin_round_trip_m;
    point.power = magnitude[best];
    point.noise_floor = floor;
    point.extent_m =
        measure_extent(magnitude, floor * kContourThreshold, glo, ghi,
                       bin_round_trip_m);
    return point;
}

ContourPoint ContourTracker::extract_strongest(const std::vector<double>& magnitude,
                                               double bin_round_trip_m,
                                               ContourScratch& scratch) const {
    ContourPoint point;
    if (magnitude.size() < 8) return point;
    const auto [lo, hi] = usable_window(config_, magnitude.size(), bin_round_trip_m);
    if (lo + 4 >= hi) return point;

    const double floor = banded_noise_floor(magnitude, lo, hi, scratch);
    const double threshold = floor * kContourThreshold;

    const std::size_t best = lo + dsp::max_bin(magnitude.data() + lo, hi - lo);
    if (magnitude[best] < threshold) {
        point.noise_floor = floor;
        return point;
    }
    point.detected = true;
    point.round_trip_m =
        dsp::parabolic_peak_position_window(magnitude.data(), lo, hi, best) *
        bin_round_trip_m;
    point.power = magnitude[best];
    point.noise_floor = floor;
    point.extent_m = measure_extent(magnitude, threshold, lo, hi, bin_round_trip_m);
    return point;
}

ContourPoint ContourTracker::extract(const std::vector<double>& magnitude,
                                     double bin_round_trip_m) const {
    ContourScratch scratch;
    return extract(magnitude, bin_round_trip_m, scratch);
}

std::vector<ContourPoint> ContourTracker::extract_peaks(
    const std::vector<double>& magnitude, double bin_round_trip_m,
    std::size_t max_peaks) const {
    ContourScratch scratch;
    std::vector<ContourPoint> result;
    extract_peaks_into(magnitude, bin_round_trip_m, max_peaks, scratch, result);
    return result;
}

ContourPoint ContourTracker::extract_strongest(const std::vector<double>& magnitude,
                                               double bin_round_trip_m) const {
    ContourScratch scratch;
    return extract_strongest(magnitude, bin_round_trip_m, scratch);
}

ContourPoint ContourTracker::extract_near(const std::vector<double>& magnitude,
                                          double bin_round_trip_m, double center_m,
                                          double window_m, double relax) const {
    ContourScratch scratch;
    return extract_near(magnitude, bin_round_trip_m, center_m, window_m, scratch,
                        relax);
}

}  // namespace witrack::core
