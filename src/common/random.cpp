// Floating-point transforms of Rng, kept out of line so this translation
// unit's -ffp-contract=off (CMakeLists.txt) pins their rounding on every
// build, FMA-capable or not.
#include "common/random.hpp"

#include <algorithm>
#include <cmath>

namespace witrack {

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * bits_.unit(); }

double Rng::gaussian(double stddev, double mean) {
    return mean + stddev * standard_normal();
}

void Rng::add_gaussian(std::span<double> out, double stddev) {
    for (double& v : out) v += gaussian(stddev);
}

double Rng::rayleigh(double sigma) {
    const double u = std::max(1e-12, uniform());
    return sigma * std::sqrt(-2.0 * std::log(u));
}

double Rng::exponential(double mean) { return -mean * std::log(1.0 - bits_.unit()); }

double Rng::standard_normal() {
    if (has_spare_) {
        has_spare_ = false;
        return spare_;
    }
    double u, v, s;
    do {
        u = 2.0 * bits_.unit() - 1.0;
        v = 2.0 * bits_.unit() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double scale = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * scale;
    has_spare_ = true;
    return u * scale;
}

}  // namespace witrack
