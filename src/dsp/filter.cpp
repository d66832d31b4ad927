#include "dsp/filter.hpp"

#include <cmath>
#include <stdexcept>

#include "common/serialize.hpp"

namespace witrack::dsp {

OnePoleHighPass::OnePoleHighPass(double cutoff_hz, double sample_rate_hz) {
    if (cutoff_hz <= 0 || sample_rate_hz <= 0 || cutoff_hz >= sample_rate_hz / 2)
        throw std::invalid_argument("OnePoleHighPass: bad cutoff/sample rate");
    const double rc = 1.0 / (2.0 * M_PI * cutoff_hz);
    const double dt = 1.0 / sample_rate_hz;
    a_ = rc / (rc + dt);
}

double OnePoleHighPass::process(double x) {
    const double y = a_ * (prev_y_ + x - prev_x_);
    prev_x_ = x;
    prev_y_ = y;
    return y;
}

void OnePoleHighPass::process_in_place(std::span<double> signal) {
    for (auto& v : signal) v = process(v);
}

void OnePoleHighPass::reset() {
    prev_x_ = 0.0;
    prev_y_ = 0.0;
}

void OnePoleHighPass::save_state(common::StateWriter& writer) const {
    writer.f64(prev_x_);
    writer.f64(prev_y_);
}

void OnePoleHighPass::load_state(common::StateReader& reader) {
    prev_x_ = reader.f64();
    prev_y_ = reader.f64();
}

}  // namespace witrack::dsp
