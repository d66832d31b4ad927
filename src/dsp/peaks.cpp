#include "dsp/peaks.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "dsp/stats.hpp"

namespace witrack::dsp {

std::vector<Peak> find_peaks(const std::vector<double>& values, double threshold,
                             std::size_t min_separation) {
    std::vector<Peak> peaks;
    find_peaks_window(values.data(), 0, values.size(), threshold, min_separation,
                      peaks);
    return peaks;
}

void find_peaks_window(const double* values, std::size_t lo, std::size_t hi,
                       double threshold, std::size_t min_separation,
                       std::vector<Peak>& out) {
    out.clear();
    if (min_separation == 0) min_separation = 1;

    std::size_t last_accepted = 0;
    bool have_accepted = false;
    for (std::size_t i = lo + 1; i + 1 < hi; ++i) {
        const double x = values[i];
        if (x < threshold) continue;
        // Peak if strictly above the previous sample and >= the next; a
        // plateau is attributed to its first index.
        if (!(x > values[i - 1] && x >= values[i + 1])) continue;
        if (have_accepted && i - last_accepted < min_separation) continue;
        out.push_back(
            {i, x, parabolic_peak_position_window(values, lo, hi, i)});
        last_accepted = i;
        have_accepted = true;
    }
}

Moments extent_moments(const double* v, std::size_t lo, std::size_t hi,
                       double threshold, double bin_m) {
    double sw[4] = {}, s1[4] = {}, s2[4] = {};
    for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t s = (i - lo) & 3;
        const double x = v[i];
        const double w = x < threshold ? 0.0 : x * x;
        const double d = static_cast<double>(i) * bin_m;
        const double wd = w * d;
        sw[s] += w;
        s1[s] += wd;
        s2[s] += wd * d;
    }
    return {(sw[0] + sw[1]) + (sw[2] + sw[3]), (s1[0] + s1[1]) + (s1[2] + s1[3]),
            (s2[0] + s2[1]) + (s2[2] + s2[3])};
}

std::size_t max_bin(const double* v, std::size_t n) {
    const auto max = [](double a, double b) { return a > b ? a : b; };
    constexpr double kLowest = -std::numeric_limits<double>::infinity();
    double slot[4] = {kLowest, kLowest, kLowest, kLowest};
    for (std::size_t i = 0; i < n; ++i) slot[i & 3] = max(slot[i & 3], v[i]);
    const double m = max(max(slot[0], slot[1]), max(slot[2], slot[3]));
    for (std::size_t i = 0; i < n; ++i)
        if (v[i] == m) return i;
    return 0;  // empty or all-NaN band: no index compares equal
}

double parabolic_peak_position(const std::vector<double>& values, std::size_t bin) {
    return parabolic_peak_position_window(values.data(), 0, values.size(), bin);
}

double parabolic_peak_position_window(const double* values, std::size_t lo,
                                      std::size_t hi, std::size_t bin) {
    // Window-relative arithmetic shifted back by lo at the end, so the
    // result is bitwise what the same call would produce on a copy of
    // [lo, hi) -- lo = 0 degenerates to the plain form exactly.
    if (bin <= lo || bin + 1 >= hi) return static_cast<double>(bin);
    const double left = values[bin - 1];
    const double center = values[bin];
    const double right = values[bin + 1];
    const double denom = left - 2.0 * center + right;
    if (denom >= 0.0) return static_cast<double>(bin);  // not concave
    double offset = 0.5 * (left - right) / denom;
    offset = std::clamp(offset, -0.5, 0.5);
    return (static_cast<double>(bin - lo) + offset) + static_cast<double>(lo);
}

double noise_floor(const std::vector<double>& values, double pct) {
    if (values.empty()) throw std::invalid_argument("noise_floor: empty profile");
    return percentile(values, pct);
}

double noise_floor_inplace(std::vector<double>& values, double pct) {
    if (values.empty()) throw std::invalid_argument("noise_floor: empty profile");
    if (pct < 0.0 || pct > 100.0)
        throw std::invalid_argument("percentile: p out of range");
    // Same rank arithmetic as dsp::percentile; nth_element delivers the
    // same order statistics a sort would, so the interpolated value is
    // bit-identical to the sorting path.
    const std::size_t n = values.size();
    const double rank = pct / 100.0 * static_cast<double>(n - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = rank - static_cast<double>(lo);
    auto nth = values.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(values.begin(), nth, values.end());
    const double v_lo = *nth;
    const double v_hi =
        hi == lo ? v_lo : *std::min_element(nth + 1, values.end());
    return v_lo * (1.0 - frac) + v_hi * frac;
}

}  // namespace witrack::dsp
