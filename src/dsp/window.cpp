#include "dsp/window.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace witrack::dsp {

std::vector<double> hann_window(std::size_t length) {
    if (length == 0) throw std::invalid_argument("hann_window: zero length");
    std::vector<double> w(length, 1.0);
    if (length == 1) return w;

    const double denom = static_cast<double>(length - 1);
    for (std::size_t i = 0; i < length; ++i) {
        const double x = static_cast<double>(i) / denom;  // in [0, 1]
        w[i] = 0.5 - 0.5 * std::cos(2.0 * M_PI * x);
    }
    return w;
}

double window_gain(const std::vector<double>& window) {
    return std::accumulate(window.begin(), window.end(), 0.0);
}

}  // namespace witrack::dsp
