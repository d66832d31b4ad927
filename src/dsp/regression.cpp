#include "dsp/regression.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/stats.hpp"

namespace witrack::dsp {

namespace {

void check_inputs(const std::vector<double>& x, const std::vector<double>& y) {
    if (x.size() != y.size())
        throw std::invalid_argument("regression: x/y length mismatch");
}

/// Weighted least squares for y = a + b x.
LineFit weighted_ols(const std::vector<double>& x, const std::vector<double>& y,
                     const std::vector<double>& w) {
    double sw = 0, swx = 0, swy = 0, swxx = 0, swxy = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sw += w[i];
        swx += w[i] * x[i];
        swy += w[i] * y[i];
        swxx += w[i] * x[i] * x[i];
        swxy += w[i] * x[i] * y[i];
    }
    const double denom = sw * swxx - swx * swx;
    LineFit fit;
    if (sw <= 0 || std::abs(denom) < 1e-12 * std::max(1.0, sw * swxx)) return fit;
    fit.slope = (sw * swxy - swx * swy) / denom;
    fit.intercept = (swy - fit.slope * swx) / sw;
    fit.valid = true;
    return fit;
}

}  // namespace

LineFit fit_ols(const std::vector<double>& x, const std::vector<double>& y) {
    check_inputs(x, y);
    if (x.size() < 2) return {};
    return weighted_ols(x, y, std::vector<double>(x.size(), 1.0));
}

LineFit fit_huber(const std::vector<double>& x, const std::vector<double>& y,
                  double delta, std::size_t iterations) {
    check_inputs(x, y);
    if (x.size() < 2) return {};
    if (delta <= 0) throw std::invalid_argument("fit_huber: delta must be positive");

    LineFit fit = fit_ols(x, y);
    if (!fit.valid) return fit;

    std::vector<double> weights(x.size(), 1.0);
    for (std::size_t iter = 0; iter < iterations; ++iter) {
        // Scale delta by the robust residual spread (MAD) so the loss adapts
        // to the data's units.
        std::vector<double> abs_res(x.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            abs_res[i] = std::abs(y[i] - fit.at(x[i]));
        double scale = median(abs_res) * 1.4826;
        if (scale < 1e-9) break;  // perfect fit
        const double threshold = delta * scale;

        for (std::size_t i = 0; i < x.size(); ++i)
            weights[i] = abs_res[i] <= threshold ? 1.0 : threshold / abs_res[i];

        const LineFit next = weighted_ols(x, y, weights);
        if (!next.valid) break;
        const double change =
            std::abs(next.slope - fit.slope) + std::abs(next.intercept - fit.intercept);
        fit = next;
        if (change < 1e-10) break;
    }
    return fit;
}

}  // namespace witrack::dsp
