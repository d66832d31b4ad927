// Order statistics and distribution summaries used by the evaluation
// harnesses (all of the paper's figures report medians, 90th percentiles,
// or CDFs of tracking error).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace witrack::dsp {

double mean(const std::vector<double>& samples);
double variance(const std::vector<double>& samples);   // population variance
double stddev(const std::vector<double>& samples);
double min_value(const std::vector<double>& samples);
double max_value(const std::vector<double>& samples);

/// Linear-interpolated percentile, p in [0, 100], between the order
/// statistics a sort would place at floor and ceil of p/100 * (n - 1).
double percentile(std::vector<double> samples, double p);

/// The same percentile of samples already sorted ascending (no copy).
double percentile_sorted(std::span<const double> sorted, double p);

/// The same percentile without a copy; reorders `samples` (selection, not
/// a full sort).
double percentile_in_place(std::span<double> samples, double p);

/// Median (50th percentile).
double median(std::vector<double> samples);

/// Empirical CDF over a sample set; supports value->fraction and
/// fraction->value queries, and emitting evenly spaced curve points for the
/// CDF figures (Fig. 8, Fig. 11).
class EmpiricalCdf {
  public:
    explicit EmpiricalCdf(std::vector<double> samples);

    std::size_t count() const { return sorted_.size(); }

    /// Fraction of samples <= value.
    double fraction_below(double value) const;

    /// Smallest value v with fraction_below(v) >= fraction (inverse CDF).
    double value_at(double fraction) const;

    double median() const { return value_at(0.5); }
    double percentile(double p) const { return value_at(p / 100.0); }

    struct Point {
        double value;
        double fraction;
    };

    /// Evenly spaced curve samples between min and max, for plotting/tables.
    std::vector<Point> curve(std::size_t n_points) const;

    const std::vector<double>& sorted_samples() const { return sorted_; }

  private:
    std::vector<double> sorted_;
};

/// Streaming mean/variance (Welford). Used by the Fig. 3 and Fig. 5 benches
/// (static-bin power, the gesture-vs-body extent statistic); the contour
/// tracker's noise floor uses noise_floor_inplace instead.
class RunningStats {
  public:
    void add(double value);
    std::size_t count() const { return n_; }
    double mean() const { return mean_; }
    double variance() const;  // population variance
    double stddev() const;
    void reset();

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

}  // namespace witrack::dsp
