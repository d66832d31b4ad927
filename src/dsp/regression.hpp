// Line fitting for the pointing-gesture estimator (paper Section 6.1:
// "We perform robust regression on the location estimates of the moving
// hand"). Huber IRLS, seeded from ordinary least squares.
#pragma once

#include <cstddef>
#include <vector>

namespace witrack::dsp {

/// Fitted line y = intercept + slope * x.
struct LineFit {
    double intercept = 0.0;
    double slope = 0.0;
    bool valid = false;

    double at(double x) const { return intercept + slope * x; }
};

/// Ordinary least squares.
LineFit fit_ols(const std::vector<double>& x, const std::vector<double>& y);

/// Iteratively reweighted least squares with the Huber loss.
/// delta is in units of residual; iterations bounds the IRLS loop.
LineFit fit_huber(const std::vector<double>& x, const std::vector<double>& y,
                  double delta = 1.0, std::size_t iterations = 20);

}  // namespace witrack::dsp
