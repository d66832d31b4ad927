#include "dsp/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace witrack::dsp {

double mean(const std::vector<double>& samples) {
    if (samples.empty()) throw std::invalid_argument("mean: empty sample set");
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

double variance(const std::vector<double>& samples) {
    if (samples.empty()) throw std::invalid_argument("variance: empty sample set");
    const double mu = mean(samples);
    double acc = 0.0;
    for (double v : samples) acc += (v - mu) * (v - mu);
    return acc / static_cast<double>(samples.size());
}

double stddev(const std::vector<double>& samples) { return std::sqrt(variance(samples)); }

double min_value(const std::vector<double>& samples) {
    if (samples.empty()) throw std::invalid_argument("min_value: empty sample set");
    return *std::min_element(samples.begin(), samples.end());
}

double max_value(const std::vector<double>& samples) {
    if (samples.empty()) throw std::invalid_argument("max_value: empty sample set");
    return *std::max_element(samples.begin(), samples.end());
}

namespace {

/// Linear interpolation between order statistics lo and hi of n samples.
struct Rank {
    std::size_t lo, hi;
    double frac;
};

Rank percentile_rank(std::size_t n, double p) {
    if (n == 0) throw std::invalid_argument("percentile: empty sample set");
    if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of range");
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    return {lo, std::min(lo + 1, n - 1), rank - static_cast<double>(lo)};
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
    return percentile_in_place(samples, p);
}

double percentile_sorted(std::span<const double> sorted, double p) {
    const Rank r = percentile_rank(sorted.size(), p);
    return sorted[r.lo] * (1.0 - r.frac) + sorted[r.hi] * r.frac;
}

double percentile_in_place(std::span<double> samples, double p) {
    // Selection finds the two order statistics a full sort would put at
    // lo and hi: the lo-th smallest, then the smallest of what lies above.
    const Rank r = percentile_rank(samples.size(), p);
    const auto lo = samples.begin() + static_cast<long>(r.lo);
    std::nth_element(samples.begin(), lo, samples.end());
    const double hi = r.hi == r.lo ? *lo : *std::min_element(lo + 1, samples.end());
    return *lo * (1.0 - r.frac) + hi * r.frac;
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples) : sorted_(std::move(samples)) {
    if (sorted_.empty()) throw std::invalid_argument("EmpiricalCdf: empty sample set");
    std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::fraction_below(double value) const {
    const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), value);
    return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double EmpiricalCdf::value_at(double fraction) const {
    if (fraction <= 0.0) return sorted_.front();
    if (fraction >= 1.0) return sorted_.back();
    const double rank = fraction * static_cast<double>(sorted_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

std::vector<EmpiricalCdf::Point> EmpiricalCdf::curve(std::size_t n_points) const {
    std::vector<Point> points;
    if (n_points < 2) n_points = 2;
    points.reserve(n_points);
    const double lo = sorted_.front();
    const double hi = sorted_.back();
    for (std::size_t i = 0; i < n_points; ++i) {
        // Use the exact extremes at the ends so rounding cannot drop the
        // final point below the last sample.
        const double v = i + 1 == n_points
                             ? hi
                             : lo + (hi - lo) * static_cast<double>(i) /
                                   static_cast<double>(n_points - 1);
        points.push_back({v, fraction_below(v)});
    }
    return points;
}

void RunningStats::add(double value) {
    ++n_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (value - mean_);
}

double RunningStats::variance() const {
    return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::reset() {
    n_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
}

}  // namespace witrack::dsp
