// The Hann window applied before the range FFT to control spectral leakage
// from the strong static reflectors ("flash effect", paper Section 4.2).
#pragma once

#include <cstddef>
#include <vector>

namespace witrack::dsp {

/// Hann window of `length` coefficients, w[i] = 0.5 - 0.5*cos(2*pi*i/(length-1))
/// (a single coefficient of 1 when length == 1).
std::vector<double> hann_window(std::size_t length);

/// Sum of coefficients; used to normalize FFT magnitudes to unity coherent
/// gain so detection thresholds do not depend on the window.
double window_gain(const std::vector<double>& window);

}  // namespace witrack::dsp
