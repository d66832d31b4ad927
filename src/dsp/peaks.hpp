// Local-maximum detection over range profiles. The contour tracker (paper
// Section 4.3) needs "the first local maximum that is substantially above
// the noise floor"; the multi-person extension needs the k closest maxima.
#pragma once

#include <cstddef>
#include <vector>

namespace witrack::dsp {

struct Peak {
    std::size_t bin = 0;        ///< index of the local maximum
    double value = 0.0;         ///< magnitude at the maximum
    double interpolated = 0.0;  ///< sub-bin position from parabolic fit
};

/// Find local maxima with value >= threshold, ordered by increasing index.
/// A plateau reports its first index. min_separation suppresses maxima
/// closer than that many bins to a previously accepted (larger-index-first
/// scan keeps the closer one, matching bottom-contour semantics).
std::vector<Peak> find_peaks(const std::vector<double>& values, double threshold,
                             std::size_t min_separation = 1);

/// Windowed, allocation-free form of find_peaks: treats values[lo, hi) as
/// the profile ([lo, hi) plays the role the copied band played -- window
/// edges are profile edges for both the candidate predicate and the
/// parabolic fit), reports absolute indices/positions, and reuses the
/// caller's output vector. A candidate clears the threshold (!(x < t)),
/// rises strictly above its left neighbor and does not fall into its right
/// one; NaN never rises, so it is never a candidate. Equivalent to
/// find_peaks on a copy of the window, shifted by lo.
void find_peaks_window(const double* values, std::size_t lo, std::size_t hi,
                       double threshold, std::size_t min_separation,
                       std::vector<Peak>& out);

/// Thresholded power moments of v over [lo, hi) for the contour extent
/// (Section 6.1): elements with v[i] < threshold weigh 0 (NaN is not below
/// the threshold and stays in), the rest weigh w = v[i]^2 at abscissa
/// d = i * bin_m, giving w_sum, m1 = sum(w*d) and m2 = sum(w*d*d). The
/// sums run in four slots (slot = (i - lo) & 3, each in index order)
/// combined as (s0 + s1) + (s2 + s3). An empty range returns zeros.
struct Moments {
    double w_sum = 0.0;
    double m1 = 0.0;
    double m2 = 0.0;
};
Moments extent_moments(const double* v, std::size_t lo, std::size_t hi,
                       double threshold, double bin_m);

/// First index of the maximum of v[0, n). The maximum is reduced in four
/// slots (slot = i & 3) with max(a, b) = a > b ? a : b, combined as
/// max(max(s0, s1), max(s2, s3)); the result is the first index whose
/// value equals it. n == 0 and an all-NaN band return 0.
std::size_t max_bin(const double* v, std::size_t n);

/// Parabolic (three-point) interpolation of a peak's sub-bin position.
/// Returns bin +/- 0.5 at most; falls back to the integer bin at the edges.
double parabolic_peak_position(const std::vector<double>& values, std::size_t bin);

/// Windowed variant: values[lo, hi) is the profile, `bin` is absolute, and
/// the window edges (not the storage edges) suppress refinement.
double parabolic_peak_position_window(const double* values, std::size_t lo,
                                      std::size_t hi, std::size_t bin);

/// Robust noise-floor estimate of a magnitude profile: the given percentile
/// of all values (median by default). The contour threshold is a multiple
/// of this floor.
double noise_floor(const std::vector<double>& values, double pct = 50.0);

/// In-place variant for preallocated scratch: selects the percentile with
/// nth_element instead of a full sort (same order statistics, so the
/// result is bit-identical to noise_floor on the same values) and reorders
/// `values` in the process.
double noise_floor_inplace(std::vector<double>& values, double pct = 50.0);

}  // namespace witrack::dsp
