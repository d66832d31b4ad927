// The receive chain's one-pole high-pass, which mimics the analog high-pass
// that suppresses the Tx-leakage beat (paper Fig. 7).
#pragma once

#include <span>

namespace witrack::common {
class StateWriter;
class StateReader;
}  // namespace witrack::common

namespace witrack::dsp {

/// First-order (one-pole) high-pass IIR filter:
///   y[n] = a * (y[n-1] + x[n] - x[n-1]).
/// Cutoff is specified in Hz against a sample rate.
class OnePoleHighPass {
  public:
    OnePoleHighPass(double cutoff_hz, double sample_rate_hz);

    double process(double x);
    void process_in_place(std::span<double> signal);
    void reset();
    double coefficient() const { return a_; }

    /// Serialize the delay line (prev_x_/prev_y_); the coefficient is a
    /// construction parameter and stays with the target.
    void save_state(common::StateWriter& writer) const;
    void load_state(common::StateReader& reader);

  private:
    double a_ = 0.0;
    double prev_x_ = 0.0;
    double prev_y_ = 0.0;
};

}  // namespace witrack::dsp
